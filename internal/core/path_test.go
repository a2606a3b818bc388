package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/telemetry"
	"github.com/interdc/postcard/internal/timegraph"
)

// pathTestInstance builds a small ring+chords instance shared by the
// deterministic path-pricing tests.
func pathTestInstance(t *testing.T, n int, capacity float64, seed int64) (*netmodel.Ledger, *netmodel.Network) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw, err := netmodel.NewNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for _, j := range []int{(i + 1) % n, (i + n - 1) % n} {
			if !nw.HasLink(netmodel.DC(i), netmodel.DC(j)) {
				if err := nw.SetLink(netmodel.DC(i), netmodel.DC(j), 1+float64(rng.Intn(9)), capacity); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(32))
	if err != nil {
		t.Fatal(err)
	}
	return ledger, nw
}

// comparePathToArc solves the same instance under path pricing and under
// the arc default, requiring identical status and (when optimal) matching
// objectives within the Epsilon tie-breaking tolerance. It returns the two
// results for additional checks.
func comparePathToArc(t *testing.T, ledger *netmodel.Ledger, files []netmodel.File, at int, base Config) (pathRes, arcRes *Result) {
	t.Helper()
	pathCfg := base
	pathCfg.Pricing = PricingPath
	arcCfg := base
	arcCfg.Pricing = PricingArc
	pathRes, err := Solve(ledger, files, at, &pathCfg)
	if err != nil {
		t.Fatalf("path solve: %v", err)
	}
	arcRes, err = Solve(ledger, files, at, &arcCfg)
	if err != nil {
		t.Fatalf("arc solve: %v", err)
	}
	if pathRes.Status != arcRes.Status {
		t.Fatalf("path status %v, arc status %v", pathRes.Status, arcRes.Status)
	}
	if pathRes.Status == lp.Optimal {
		tol := 1e-3 * (1 + math.Abs(arcRes.CostPerSlot))
		if math.Abs(pathRes.CostPerSlot-arcRes.CostPerSlot) > tol {
			t.Fatalf("path objective %v, arc objective %v (diff %g)",
				pathRes.CostPerSlot, arcRes.CostPerSlot,
				math.Abs(pathRes.CostPerSlot-arcRes.CostPerSlot))
		}
	}
	return pathRes, arcRes
}

// TestPathPricingMatchesArc pins the basic equivalence on a deterministic
// multi-file instance with pre-committed traffic, and checks that the path
// master actually generated columns and lazy rows.
func TestPathPricingMatchesArc(t *testing.T) {
	ledger, _ := pathTestInstance(t, 6, 40, 7)
	if err := ledger.Add(0, 1, 0, 25); err != nil {
		t.Fatal(err)
	}
	files := []netmodel.File{
		{ID: 0, Src: 0, Dst: 3, Size: 30, Release: 0, Deadline: 4},
		{ID: 1, Src: 1, Dst: 4, Size: 20, Release: 0, Deadline: 3},
		{ID: 2, Src: 5, Dst: 2, Size: 15, Release: 1, Deadline: 3},
	}
	pathRes, _ := comparePathToArc(t, ledger, files, 0, Config{})
	if pathRes.Status != lp.Optimal {
		t.Fatalf("expected optimal, got %v", pathRes.Status)
	}
	if pathRes.ColGenColumns == 0 {
		t.Error("path master generated no columns")
	}
	if pathRes.ColGenRows == 0 {
		t.Error("path master materialized no lazy rows")
	}
	if pathRes.PathFallbacks != 0 {
		t.Errorf("a feasible instance was settled by the volume master")
	}
	if pathRes.Schedule == nil {
		t.Fatal("optimal path result carries no schedule")
	}
}

// TestPathPricingStoragePolicies checks the equivalence under every
// holdover policy — the path oracle enforces the policy inside the
// shortest-path weight function, a different mechanism from the arc
// builder's variable filter.
func TestPathPricingStoragePolicies(t *testing.T) {
	for _, policy := range []StoragePolicy{StorageEverywhere, StorageEndpointsOnly, StorageNone} {
		ledger, _ := pathTestInstance(t, 5, 60, 11)
		files := []netmodel.File{
			{ID: 0, Src: 0, Dst: 2, Size: 25, Release: 0, Deadline: 4},
			{ID: 1, Src: 3, Dst: 1, Size: 10, Release: 0, Deadline: 2},
		}
		comparePathToArc(t, ledger, files, 0, Config{Storage: policy})
	}
}

// TestPathPricingWorkerCounts pins bit-determinism across worker-pool
// widths: the schedule cost and the generation counters must be identical
// whether pricing runs serially or fanned out.
func TestPathPricingWorkerCounts(t *testing.T) {
	var ref *Result
	for _, workers := range []int{1, 2, 8} {
		ledger, _ := pathTestInstance(t, 8, 35, 13)
		files := []netmodel.File{
			{ID: 0, Src: 0, Dst: 4, Size: 30, Release: 0, Deadline: 5},
			{ID: 1, Src: 2, Dst: 7, Size: 22, Release: 0, Deadline: 4},
			{ID: 2, Src: 6, Dst: 1, Size: 18, Release: 1, Deadline: 4},
			{ID: 3, Src: 5, Dst: 3, Size: 12, Release: 0, Deadline: 3},
		}
		cfg := Config{Pricing: PricingPath, pricingWorkers: workers}
		res, err := Solve(ledger, files, 0, &cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.CostPerSlot != ref.CostPerSlot {
			t.Errorf("workers=%d: cost %v, workers=1 cost %v", workers, res.CostPerSlot, ref.CostPerSlot)
		}
		if res.ColGenColumns != ref.ColGenColumns || res.ColGenRounds != ref.ColGenRounds ||
			res.ColGenRows != ref.ColGenRows {
			t.Errorf("workers=%d: generation counters (%d cols, %d rounds, %d rows) differ from serial (%d, %d, %d)",
				workers, res.ColGenColumns, res.ColGenRounds, res.ColGenRows,
				ref.ColGenColumns, ref.ColGenRounds, ref.ColGenRows)
		}
	}
}

// TestPathPricingInfeasibleFallback starves capacity so the instance is
// infeasible: the Postcard master's artificials stay positive and the
// volume master settles the verdict. It must be the arc oracle's
// Infeasible, flagged in PathFallbacks, with the first master's universe
// accounting and the work of both masters in every counter.
func TestPathPricingInfeasibleFallback(t *testing.T) {
	ledger, nw := pathTestInstance(t, 4, 5, 3)
	files := []netmodel.File{
		{ID: 0, Src: 0, Dst: 2, Size: 50, Release: 0, Deadline: 2},
	}
	pathRes, arcRes := comparePathToArc(t, ledger, files, 0, Config{})
	if arcRes.Status != lp.Infeasible {
		t.Fatalf("instance unexpectedly feasible (status %v); the verdict is not exercised", arcRes.Status)
	}
	if pathRes.PathFallbacks != 1 {
		t.Errorf("expected PathFallbacks=1, got %d", pathRes.PathFallbacks)
	}
	// The two masters the solve runs, built as a fresh Solver and settle
	// build them.
	tg, err := timegraph.Build(nw, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	conf := Config{Pricing: PricingPath}
	reach, err := routability(tg, files, conf)
	if err != nil {
		t.Fatal(err)
	}
	first := newPathBuilder(nil, tg, ledger, files, reach, conf)
	if err := first.build(); err != nil {
		t.Fatal(err)
	}
	firstRes, _, unsettled, err := first.solve(&lp.Options{InitialBasis: mappedBasis(first.colKeys, first.rowKeys, nil, nil, first.crashNewFiles)})
	if err != nil {
		t.Fatal(err)
	}
	if !unsettled {
		t.Fatal("the Postcard master delivered the starved file")
	}
	vm := newPathBuilder(nil, tg, ledger, files, reach, conf)
	vm.artPrice, vm.xCost = 1, 0
	volSol, err := vm.solveSeeded(first.cols, first.arena)
	if err != nil {
		t.Fatal(err)
	}
	if !vm.artificialResidue(volSol) || volSol.Iterations == 0 {
		t.Fatalf("volume master: positive artificial %v after %d iterations, want true after some",
			vm.artificialResidue(volSol), volSol.Iterations)
	}
	want := firstRes.Work
	telemetry.Add(&want, volSol.Work)
	var names []string
	var got, sum []float64
	telemetry.Walk(&pathRes.Work, func(f reflect.StructField, x float64) {
		names = append(names, f.Name)
		got = append(got, x)
	})
	telemetry.Walk(&want, func(_ reflect.StructField, x float64) { sum = append(sum, x) })
	for i, name := range names {
		if got[i] != sum[i] {
			t.Errorf("%s = %v, want %v, the two masters' sum", name, got[i], sum[i])
		}
	}
	if pathRes.VarUniverse != first.varUniverse || pathRes.PrunedVars != first.prunedVars {
		t.Errorf("universe %d, pruned %d; the first master's are %d, %d",
			pathRes.VarUniverse, pathRes.PrunedVars, first.varUniverse, first.prunedVars)
	}
}

// TestPathPricingIncrementalSolver drives the incremental Solver in path
// mode over several slots — including an infeasible shedding retry — and
// compares every slot against the stateless arc solve of the identical
// ledger state.
func TestPathPricingIncrementalSolver(t *testing.T) {
	ledger, _ := pathTestInstance(t, 6, 30, 17)
	shadow, _ := pathTestInstance(t, 6, 30, 17)
	rng := rand.New(rand.NewSource(99))
	solver := NewSolver(&Config{Pricing: PricingPath})
	for slot := 0; slot < 6; slot++ {
		nFiles := 1 + rng.Intn(3)
		files := make([]netmodel.File, nFiles)
		for k := range files {
			src := rng.Intn(6)
			dst := rng.Intn(6)
			if src == dst {
				dst = (dst + 1) % 6
			}
			files[k] = netmodel.File{
				ID: slot*10 + k, Src: netmodel.DC(src), Dst: netmodel.DC(dst),
				Size: 5 + 25*rng.Float64(), Release: slot, Deadline: 1 + rng.Intn(4),
			}
		}
		for {
			res, err := solver.Solve(ledger, files, slot)
			var ue *UnroutableError
			if errors.As(err, &ue) {
				if len(files) == 1 {
					break // nothing routable this slot
				}
				files = files[:len(files)-1]
				continue
			}
			if err != nil {
				t.Fatalf("slot %d: %v", slot, err)
			}
			ref, err := Solve(shadow, files, slot, nil)
			if err != nil {
				t.Fatalf("slot %d: arc reference: %v", slot, err)
			}
			if res.Status != ref.Status {
				t.Fatalf("slot %d: path status %v, arc %v", slot, res.Status, ref.Status)
			}
			if res.Status == lp.Optimal {
				tol := 1e-3 * (1 + math.Abs(ref.CostPerSlot))
				if math.Abs(res.CostPerSlot-ref.CostPerSlot) > tol {
					t.Fatalf("slot %d: path objective %v, arc %v", slot, res.CostPerSlot, ref.CostPerSlot)
				}
				if err := res.Schedule.Apply(ledger); err != nil {
					t.Fatalf("slot %d: applying path plan: %v", slot, err)
				}
				// Apply the same plan to the shadow ledger so both solvers keep
				// seeing identical residual state.
				if err := res.Schedule.Apply(shadow); err != nil {
					t.Fatalf("slot %d: applying to shadow: %v", slot, err)
				}
				break
			}
			if len(files) == 1 {
				break // slot truly unserveable; move on
			}
			files = files[:len(files)-1] // shed and retry, exercising the same-slot warm map
		}
	}
	stats := solver.Stats()
	if stats.PathSolves == 0 {
		t.Error("incremental solver recorded no path solves")
	}
	if stats.PathSolves != stats.Solves {
		t.Errorf("PathSolves %d != Solves %d under PricingPath", stats.PathSolves, stats.Solves)
	}
}

// TestPathPricingRecyclesColumns drives the warm Solver in path mode over
// consecutive slots with a recurring traffic pattern: the same (src, dst)
// pairs reappear each slot, so path columns harvested from one slot's
// optimal basis should seed the next slot's master and be counted in
// SolveStats.PathRecycled. Recycling is a warm start, never a restriction —
// every slot must still match the stateless arc solve of the same state.
func TestPathPricingRecyclesColumns(t *testing.T) {
	ledger, _ := pathTestInstance(t, 6, 50, 23)
	shadow, _ := pathTestInstance(t, 6, 50, 23)
	solver := NewSolver(&Config{Pricing: PricingPath})
	pairs := []netmodel.Link{{From: 0, To: 3}, {From: 1, To: 4}, {From: 5, To: 2}}
	for slot := 0; slot < 4; slot++ {
		files := make([]netmodel.File, len(pairs))
		for k, p := range pairs {
			files[k] = netmodel.File{
				ID: slot*10 + k, Src: p.From, Dst: p.To,
				Size: 8 + float64(k), Release: slot, Deadline: 3,
			}
		}
		res, err := solver.Solve(ledger, files, slot)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		ref, err := Solve(shadow, files, slot, nil)
		if err != nil {
			t.Fatalf("slot %d: arc reference: %v", slot, err)
		}
		if res.Status != ref.Status {
			t.Fatalf("slot %d: path status %v, arc %v", slot, res.Status, ref.Status)
		}
		if res.Status != lp.Optimal {
			t.Fatalf("slot %d: expected optimal, got %v", slot, res.Status)
		}
		tol := 1e-3 * (1 + math.Abs(ref.CostPerSlot))
		if math.Abs(res.CostPerSlot-ref.CostPerSlot) > tol {
			t.Fatalf("slot %d: path objective %v, arc %v", slot, res.CostPerSlot, ref.CostPerSlot)
		}
		if slot == 0 && res.PathRecycled != 0 {
			t.Errorf("slot 0 recycled %d columns with an empty retention cache", res.PathRecycled)
		}
		if err := res.Schedule.Apply(ledger); err != nil {
			t.Fatalf("slot %d: applying plan: %v", slot, err)
		}
		if err := res.Schedule.Apply(shadow); err != nil {
			t.Fatalf("slot %d: applying to shadow: %v", slot, err)
		}
	}
	stats := solver.Stats()
	if stats.PathRecycled == 0 {
		t.Error("warm path solver recycled no columns across recurring-demand slots")
	}
	// Reset must drop the retained paths along with the warm maps: a fresh
	// epoch's first solve starts from an empty cache again.
	solver.Reset()
	files := []netmodel.File{{ID: 100, Src: 0, Dst: 3, Size: 10, Release: 6, Deadline: 3}}
	res, err := solver.Solve(ledger, files, 6)
	if err != nil {
		t.Fatalf("post-reset solve: %v", err)
	}
	if res.PathRecycled != 0 {
		t.Errorf("post-Reset solve recycled %d columns; retention cache not cleared", res.PathRecycled)
	}
}

// FuzzPathPricingObjective is the PR 9 equivalence gate: on random
// ring-plus-chords instances, Dantzig–Wolfe path pricing must report the
// same LP status and optimal objective as both the arc-colgen default and
// the fully materialized unpruned model, and its implicit-universe
// accounting must tie out against the full model exactly like the sparse
// arc construction's.
func FuzzPathPricingObjective(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(40), uint8(60), uint8(0))
	f.Add(int64(2), uint8(6), uint8(5), uint8(12), uint8(30), uint8(1))
	f.Add(int64(3), uint8(3), uint8(1), uint8(200), uint8(0), uint8(2))
	f.Add(int64(4), uint8(8), uint8(7), uint8(25), uint8(90), uint8(0))
	f.Add(int64(5), uint8(5), uint8(4), uint8(8), uint8(50), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, filesRaw, capRaw, loadRaw, policyRaw uint8) {
		n := 3 + int(nRaw)%6                     // 3-8 datacenters
		nFiles := 1 + int(filesRaw)%6            // 1-6 files
		capacity := 4 + float64(int(capRaw)%200) // GB/slot
		policy := StoragePolicy(int(policyRaw) % 3)
		rng := rand.New(rand.NewSource(seed))

		nw, err := netmodel.NewNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		addLink := func(i, j int) {
			price := 1 + float64(rng.Intn(9))
			if err := nw.SetLink(netmodel.DC(i), netmodel.DC(j), price, capacity); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			addLink(i, (i+1)%n)
			addLink((i+1)%n, i)
		}
		chords := rng.Intn(n)
		for c := 0; c < chords; c++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j && !nw.HasLink(netmodel.DC(i), netmodel.DC(j)) {
				addLink(i, j)
			}
		}

		ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(32))
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < int(loadRaw)%8; c++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if !nw.HasLink(netmodel.DC(i), netmodel.DC(j)) {
				continue
			}
			amt := capacity * rng.Float64() * 0.8
			if err := ledger.Add(netmodel.DC(i), netmodel.DC(j), rng.Intn(4), amt); err != nil {
				t.Fatal(err)
			}
		}

		files := make([]netmodel.File, nFiles)
		for k := range files {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			if src == dst {
				dst = (dst + 1) % n
			}
			files[k] = netmodel.File{
				ID:       k,
				Src:      netmodel.DC(src),
				Dst:      netmodel.DC(dst),
				Size:     0.5 + 20*rng.Float64(),
				Release:  rng.Intn(3),
				Deadline: 1 + rng.Intn(6),
			}
		}
		solveAt := 0

		configs := []Config{
			{Storage: policy, Pricing: PricingPath},                       // path master
			{Storage: policy, Pricing: PricingPath, DisablePruning: true}, // path master, permissive reach
			{Storage: policy}, // arc colgen default
			{Storage: policy, DisableColGen: true, DisablePruning: true}, // full arc model
		}
		results := make([]*Result, len(configs))
		for i := range configs {
			res, err := Solve(ledger, files, solveAt, &configs[i])
			if err != nil {
				var ue *UnroutableError
				if errors.As(err, &ue) {
					for j := range configs {
						if _, err2 := Solve(ledger, files, solveAt, &configs[j]); !errors.As(err2, &ue) {
							t.Fatalf("config %d rejected the instance as unroutable but config %d did not: %v", i, j, err2)
						}
					}
					t.Skip("unroutable instance")
				}
				t.Fatalf("config %+v: %v", configs[i], err)
			}
			results[i] = res
		}
		ref := results[len(configs)-1] // full arc model
		for i, res := range results {
			if res.Status != ref.Status {
				t.Fatalf("config %+v: status %v, full model %v", configs[i], res.Status, ref.Status)
			}
			if res.Status != lp.Optimal {
				continue
			}
			tol := 1e-3 * (1 + math.Abs(ref.CostPerSlot))
			if math.Abs(res.CostPerSlot-ref.CostPerSlot) > tol {
				t.Fatalf("config %+v: objective %v, full model %v (diff %g)",
					configs[i], res.CostPerSlot, ref.CostPerSlot,
					math.Abs(res.CostPerSlot-ref.CostPerSlot))
			}
		}
		// The path master's implicit universe uses the same accounting as the
		// sparse arc construction: kept + pruned == unpruned.
		path := results[0]
		if path.VarUniverse+path.PrunedVars != ref.VarUniverse {
			t.Fatalf("path universe accounting: kept %d + pruned %d != unpruned %d",
				path.VarUniverse, path.PrunedVars, ref.VarUniverse)
		}
	})
}
