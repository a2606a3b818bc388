package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
)

// chainNetwork builds a complete network (every pair one hop away, so any
// deadline >= 1 is routable) with deterministic prices.
func chainNetwork(t *testing.T, n int, capacity float64) *netmodel.Network {
	t.Helper()
	nw, err := netmodel.Complete(n, func(i, j netmodel.DC) float64 {
		return 1 + float64((int(i)*7+int(j)*3)%10)
	}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// chainFiles draws a deterministic per-slot workload for the warm-start
// chain tests: 1-3 files released at slot t with deadlines 1-3.
func chainFiles(rng *rand.Rand, nw *netmodel.Network, t, nextID int) []netmodel.File {
	n := nw.NumDCs()
	count := 1 + rng.Intn(3)
	files := make([]netmodel.File, 0, count)
	for k := 0; k < count; k++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if src == dst {
			dst = (dst + 1) % n
		}
		files = append(files, netmodel.File{
			ID:       nextID + k,
			Src:      netmodel.DC(src),
			Dst:      netmodel.DC(dst),
			Size:     4 + 12*rng.Float64(),
			Release:  t,
			Deadline: 1 + rng.Intn(3),
		})
	}
	return files
}

// TestSolverMatchesStatelessSolveChain drives a Solver slot by slot against
// the stateless Solve on the identical ledger state: every slot must agree
// on status and optimal cost (up to the Epsilon tie-breaking term), the
// warm plan must commit cleanly, and the cache must demonstrably fire
// (warm-started solves, graph reuses, column generation).
func TestSolverMatchesStatelessSolveChain(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	nw := chainNetwork(t, 5, 60)
	ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(64))
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(nil)
	const slots = 8
	nextID := 0
	for slot := 0; slot < slots; slot++ {
		files := chainFiles(rng, nw, slot, nextID)
		nextID += len(files)
		cold, err := Solve(ledger, files, slot, nil)
		if err != nil {
			t.Fatalf("slot %d: cold: %v", slot, err)
		}
		warm, err := solver.Solve(ledger, files, slot)
		if err != nil {
			t.Fatalf("slot %d: warm: %v", slot, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("slot %d: warm status %v, cold %v", slot, warm.Status, cold.Status)
		}
		if cold.Status != lp.Optimal {
			t.Fatalf("slot %d: unexpected status %v (generator meant to stay feasible)", slot, cold.Status)
		}
		// Both solve the same LP; objectives agree up to the Epsilon
		// traffic tie-breaker (two optimal vertices may trade charged cost
		// against epsilon-weighted traffic).
		tol := 1e-3 * (1 + math.Abs(cold.CostPerSlot))
		if math.Abs(warm.CostPerSlot-cold.CostPerSlot) > tol {
			t.Fatalf("slot %d: warm cost %v, cold cost %v", slot, warm.CostPerSlot, cold.CostPerSlot)
		}
		// Materialized column counts are path-dependent under column
		// generation (different duals admit different columns), but the
		// variable universe and the rows — emitted from universe support —
		// are structural and must agree exactly.
		if warm.VarUniverse != cold.VarUniverse || warm.Constraints != cold.Constraints {
			t.Fatalf("slot %d: warm model %dx%d, cold %dx%d — graph reuse changed the LP",
				slot, warm.VarUniverse, warm.Constraints, cold.VarUniverse, cold.Constraints)
		}
		if slot == 0 && warm.WarmStarted {
			t.Fatal("first solve of a fresh Solver claims a warm start")
		}
		// Commit the warm plan so both solvers see the warm trajectory.
		if err := warm.Schedule.Apply(ledger); err != nil {
			t.Fatalf("slot %d: applying warm plan: %v", slot, err)
		}
	}
	st := solver.Stats()
	if st.Solves != slots {
		t.Errorf("Solves = %d, want %d", st.Solves, slots)
	}
	if st.WarmSolves < slots/2 {
		t.Errorf("WarmSolves = %d of %d — basis mapping is not being accepted", st.WarmSolves, slots)
	}
	if st.GraphReuses < 1 {
		t.Errorf("GraphReuses = %d, want >= 1", st.GraphReuses)
	}
	// The chain must show delayed generation actually restricting the
	// per-slot masters.
	if st.ColGenRounds == 0 || st.ColGenUniverse == 0 {
		t.Errorf("column generation never fired across the chain: rounds=%d universe=%d",
			st.ColGenRounds, st.ColGenUniverse)
	}
	if st.ColGenColumns >= st.ColGenUniverse {
		t.Errorf("generation materialized the whole universe (%d of %d) — restriction is not restricting",
			st.ColGenColumns, st.ColGenUniverse)
	}
	if st.Iterations < st.Phase1Iter || st.Phase1Iter < 0 {
		t.Errorf("iteration split inconsistent: total %d, phase1 %d", st.Iterations, st.Phase1Iter)
	}
}

// TestSolverCacheResets pins the reset triggers: a fresh solver never warm
// starts its first solve; consecutive slots on one network do; switching
// networks or jumping slots cold-starts again.
func TestSolverCacheResets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw1 := chainNetwork(t, 4, 50)
	nw2 := chainNetwork(t, 4, 50)
	mkLedger := func(nw *netmodel.Network) *netmodel.Ledger {
		l, err := netmodel.NewLedger(nw, netmodel.MaxCharging(32))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l1, l2 := mkLedger(nw1), mkLedger(nw2)
	solver := NewSolver(nil)
	solveAt := func(ledger *netmodel.Ledger, nw *netmodel.Network, slot, id int) *Result {
		t.Helper()
		res, err := solver.Solve(ledger, chainFiles(rng, nw, slot, id), slot)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != lp.Optimal {
			t.Fatalf("slot %d: status %v", slot, res.Status)
		}
		return res
	}
	if res := solveAt(l1, nw1, 0, 0); res.WarmStarted {
		t.Error("fresh solver warm-started slot 0")
	}
	if res := solveAt(l1, nw1, 1, 10); !res.WarmStarted {
		t.Error("consecutive slot on the same network did not warm-start")
	}
	if res := solveAt(l2, nw2, 2, 20); res.WarmStarted {
		t.Error("network switch did not reset the cache")
	}
	if res := solveAt(l2, nw2, 3, 30); !res.WarmStarted {
		t.Error("consecutive slot after the switch did not warm-start")
	}
	if res := solveAt(l2, nw2, 9, 40); res.WarmStarted {
		t.Error("non-consecutive slot jump did not reset the cache")
	}
}

// TestSolverEmptySlotKeepsCache: a slot with no demand must not poison the
// cache — the next slot still warm-starts off the last real solve.
func TestSolverEmptySlotKeepsCache(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nw := chainNetwork(t, 4, 50)
	ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(32))
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(nil)
	r0, err := solver.Solve(ledger, chainFiles(rng, nw, 0, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r0.Schedule.Apply(ledger); err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Solve(ledger, nil, 1); err != nil {
		t.Fatal(err)
	}
	r2, err := solver.Solve(ledger, chainFiles(rng, nw, 2, 10), 2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Status != lp.Optimal {
		t.Fatalf("slot 2 status %v", r2.Status)
	}
	if !r2.WarmStarted {
		t.Error("empty slot broke the warm-start chain")
	}
	if got := solver.Stats().Solves; got != 2 {
		t.Errorf("Solves = %d, want 2 (empty slot must not count)", got)
	}
}

// TestSolverShedRetryWarmStarts mirrors the engine's infeasibility
// handling: an overloaded slot re-solved with fewer files (same t) reuses
// the infeasible solve's basis.
func TestSolverShedRetryWarmStarts(t *testing.T) {
	nw, err := netmodel.NewNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLink(0, 1, 2, 10); err != nil {
		t.Fatal(err)
	}
	ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(16))
	if err != nil {
		t.Fatal(err)
	}
	files := []netmodel.File{
		{ID: 1, Src: 0, Dst: 1, Size: 9, Release: 0, Deadline: 1},
		{ID: 2, Src: 0, Dst: 1, Size: 8, Release: 0, Deadline: 1},
	}
	solver := NewSolver(nil)
	r, err := solver.Solve(ledger, files, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != lp.Infeasible {
		t.Fatalf("overloaded slot status %v, want infeasible", r.Status)
	}
	retry, err := solver.Solve(ledger, files[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if retry.Status != lp.Optimal {
		t.Fatalf("retry status %v, want optimal", retry.Status)
	}
	if math.Abs(retry.CostPerSlot-2*9) > 1e-6 {
		t.Errorf("retry cost %v, want 18", retry.CostPerSlot)
	}
	if !retry.WarmStarted {
		t.Error("same-slot retry cold-started instead of reusing the infeasible solve's basis")
	}
	// The cache accepted same-slot reuse without a reset (a reset would
	// also have dropped the graph).
	if solver.Stats().GraphReuses < 1 {
		t.Errorf("same-slot retry rebuilt the graph (GraphReuses = %d)", solver.Stats().GraphReuses)
	}
}

// TestSolverBatchIgnoresSmallerSolves mirrors the admission daemon, which
// re-solves a slot's open batch whenever a transfer joins it and, depending
// on timing, may or may not have solved the smaller batches first. Solver A
// solves every prefix of each slot's batch, solver B only the whole batch;
// both commit the whole batch's plan. Every slot must commit the identical
// plan at the identical cost, under both formulations, since the batch's
// solve starts from the state its slot opened with either way. So must an
// arc solver C, restored from a JSON snapshot of A taken right after the
// slot's first, smallest solve (snapshots do not carry the path master's
// retained paths).
func TestSolverBatchIgnoresSmallerSolves(t *testing.T) {
	const slots = 9
	for _, cfg := range []Config{{}, {Pricing: PricingPath}} {
		for _, seed := range []int64{1, 7, 23} {
			solverBatchChain(t, cfg, seed, slots)
		}
	}
}

func solverBatchChain(t *testing.T, cfg Config, seed int64, slots int) {
	rng := rand.New(rand.NewSource(seed))
	nw := chainNetwork(t, 5, 60)
	var batches [][]netmodel.File
	nextID := 0
	for slot := 0; slot < slots; slot++ {
		files := chainFiles(rng, nw, slot, nextID)
		nextID += len(files)
		batches = append(batches, files)
	}
	ledgerA, err := netmodel.NewLedger(nw, netmodel.MaxCharging(slots))
	if err != nil {
		t.Fatal(err)
	}
	ledgerB, err := netmodel.NewLedger(nw, netmodel.MaxCharging(slots))
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewSolver(&cfg), NewSolver(&cfg)
	for slot, files := range batches {
		var ra *Result
		rc := []*Result{}
		for n := 1; n <= len(files); n++ {
			if ra, err = a.Solve(ledgerA, files[:n], slot); err != nil {
				t.Fatalf("pricing %v seed %d slot %d, %d of %d files: %v", cfg.Pricing, seed, slot, n, len(files), err)
			}
			if n == 1 && cfg.Pricing == PricingArc {
				raw, err := json.Marshal(a.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				var snap SolverSnapshot
				if err := json.Unmarshal(raw, &snap); err != nil {
					t.Fatal(err)
				}
				c := NewSolver(&cfg)
				c.Restore(nw, &snap)
				res, err := c.Solve(ledgerA, files, slot)
				if err != nil {
					t.Fatal(err)
				}
				rc = append(rc, res)
			}
		}
		rb, err := b.Solve(ledgerB, files, slot)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Status != lp.Optimal || rb.Status != lp.Optimal {
			t.Fatalf("pricing %v seed %d slot %d: status %v / %v", cfg.Pricing, seed, slot, ra.Status, rb.Status)
		}
		for i, res := range append([]*Result{ra}, rc...) {
			if res.CostPerSlot != rb.CostPerSlot || !reflect.DeepEqual(res.Schedule.Actions(), rb.Schedule.Actions()) {
				t.Fatalf("pricing %v seed %d slot %d: the batch's plan depends on the smaller batches solved before it (restored %v): cost %v, %v alone",
					cfg.Pricing, seed, slot, i > 0, res.CostPerSlot, rb.CostPerSlot)
			}
		}
		if err := ra.Schedule.Apply(ledgerA); err != nil {
			t.Fatal(err)
		}
		if err := rb.Schedule.Apply(ledgerB); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolverPathRecyclesOnlyFullLengthPaths drives a warm path-pricing
// Solver over a chain whose files have deadlines of 1 to 3 slots. A path
// recycled from a file with a shorter deadline arrives before a later
// file's deadline; seeded as is, it would deliver that file without holding
// it at its destination, and the verifier would reject the plan.
func TestSolverPathRecyclesOnlyFullLengthPaths(t *testing.T) {
	const slots = 9
	rng := rand.New(rand.NewSource(1))
	nw := chainNetwork(t, 5, 60)
	ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(slots))
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(&Config{Pricing: PricingPath})
	nextID, recycled := 0, 0
	for slot := 0; slot < slots; slot++ {
		files := chainFiles(rng, nw, slot, nextID)
		nextID += len(files)
		res, err := solver.Solve(ledger, files, slot)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		recycled += res.PathRecycled
		if err := res.Schedule.Apply(ledger); err != nil {
			t.Fatal(err)
		}
	}
	if recycled == 0 {
		t.Error("no path was recycled: the chain does not exercise seeding")
	}
}
