package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"github.com/interdc/postcard/internal/netmodel"
)

// TestSolverSnapshotResumesBitIdentical drives two solvers over the same
// slot chain: A runs uninterrupted; B is built mid-horizon from A's JSON
// snapshot (as the postcard-server restart path does) and continues over a
// ledger restored from its own snapshot. Every remaining slot must produce
// bit-identical costs and schedules, and B's first solve must warm-start —
// the restored basis, not a cold crash basis, drives the resumed plans.
//
// Under path pricing it runs over many chains: the restored solver must
// seed the path master with the retained paths the uninterrupted one
// seeds, and neither may price differently because its recycled
// time-expanded graph has surplus layers the other's lacks.
func TestSolverSnapshotResumesBitIdentical(t *testing.T) {
	t.Run("arc", func(t *testing.T) {
		resumeBitIdentical(t, nil, chainNetwork(t, 5, 60), 7)
	})
	t.Run("path", func(t *testing.T) {
		seeds := int64(400)
		if testing.Short() {
			seeds = 100
		}
		cfg := &Config{Pricing: PricingPath}
		for _, c := range []struct {
			dcs      int
			capacity float64
		}{{8, 30}, {6, 40}} {
			nw := chainNetwork(t, c.dcs, c.capacity)
			for seed := int64(1); seed <= seeds; seed++ {
				if resumeBitIdentical(t, cfg, nw, seed); t.Failed() {
					t.Fatalf("%d DCs, capacity %v, seed %d: restored solver diverged", c.dcs, c.capacity, seed)
				}
			}
		}
	})
}

// resumeBitIdentical runs one restart check with solvers configured by cfg
// over a chain of random slots drawn from seed.
func resumeBitIdentical(t *testing.T, cfg *Config, nw *netmodel.Network, seed int64) {
	t.Helper()
	ledgerA, err := netmodel.NewLedger(nw, netmodel.MaxCharging(64))
	if err != nil {
		t.Fatal(err)
	}
	solverA := NewSolver(cfg)
	const cut, slots = 4, 9
	rng := rand.New(rand.NewSource(seed))
	var chain [][]netmodel.File
	nextID := 0
	for slot := 0; slot < slots; slot++ {
		files := chainFiles(rng, nw, slot, nextID)
		nextID += len(files)
		chain = append(chain, files)
	}
	for slot := 0; slot < cut; slot++ {
		res, err := solverA.Solve(ledgerA, chain[slot], slot)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if err := res.Schedule.Apply(ledgerA); err != nil {
			t.Fatal(err)
		}
	}

	// Kill/restart: everything crosses JSON, as the on-disk snapshot does.
	rawSolver, err := json.Marshal(solverA.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	rawLedger, err := json.Marshal(ledgerA.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var solverSnap SolverSnapshot
	if err := json.Unmarshal(rawSolver, &solverSnap); err != nil {
		t.Fatal(err)
	}
	var ledgerSnap netmodel.LedgerSnapshot
	if err := json.Unmarshal(rawLedger, &ledgerSnap); err != nil {
		t.Fatal(err)
	}
	ledgerB, err := netmodel.LedgerFromSnapshot(nw, &ledgerSnap)
	if err != nil {
		t.Fatal(err)
	}
	solverB := NewSolver(cfg)
	solverB.Restore(nw, &solverSnap)
	if got, want := solverB.Stats(), solverA.Stats(); got != want {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}

	for slot := cut; slot < slots; slot++ {
		resA, err := solverA.Solve(ledgerA, chain[slot], slot)
		if err != nil {
			t.Fatalf("slot %d: A: %v", slot, err)
		}
		resB, err := solverB.Solve(ledgerB, chain[slot], slot)
		if err != nil {
			t.Fatalf("slot %d: B: %v", slot, err)
		}
		if slot == cut && !resB.WarmStarted {
			t.Errorf("restored solver's first solve did not warm-start")
		}
		if resA.CostPerSlot != resB.CostPerSlot {
			t.Errorf("slot %d: cost A %v != B %v", slot, resA.CostPerSlot, resB.CostPerSlot)
		}
		if !reflect.DeepEqual(resA.Schedule.Actions(), resB.Schedule.Actions()) {
			t.Errorf("slot %d: schedules diverge after restore", slot)
		}
		if err := resA.Schedule.Apply(ledgerA); err != nil {
			t.Fatal(err)
		}
		if err := resB.Schedule.Apply(ledgerB); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := ledgerA.CostPerSlot(), ledgerB.CostPerSlot(); a != b {
		t.Errorf("final ledger cost A %v != B %v", a, b)
	}
}

// TestSolverSnapshotColdAndInvalid pins the degraded paths: a cold solver
// snapshots only its counters, and a snapshot with inconsistent shapes, or
// written under the other pricing mode, restores the counters but leaves
// the solver cold instead of feeding the simplex a corrupt or foreign
// basis.
func TestSolverSnapshotColdAndInvalid(t *testing.T) {
	s := NewSolver(nil)
	snap := s.Snapshot()
	if snap.Valid || snap.Basis != nil {
		t.Fatalf("cold solver snapshot claims warm state: %+v", snap)
	}
	nw := chainNetwork(t, 3, 50)
	s2 := NewSolver(nil)
	s2.Restore(nw, snap)
	if s2.valid {
		t.Error("restoring a cold snapshot marked the solver warm")
	}
	s2.Restore(nw, nil)
	if s2.valid {
		t.Error("restoring a nil snapshot marked the solver warm")
	}

	// Corrupt shape: basis dimensions disagree with the key lists.
	ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(16))
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSolver(nil)
	if _, err := warm.Solve(ledger, []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 5, Deadline: 2}}, 0); err != nil {
		t.Fatal(err)
	}
	bad := warm.Snapshot()
	if !bad.Valid {
		t.Fatal("solved solver snapshot not valid")
	}
	bad.Cols = bad.Cols[:len(bad.Cols)-1]
	s3 := NewSolver(nil)
	s3.Restore(nw, bad)
	if s3.valid {
		t.Error("shape-inconsistent snapshot accepted as warm state")
	}
	if s3.Stats() != bad.Stats {
		t.Error("counters not restored from degraded snapshot")
	}

	// Another formulation's state: an arc snapshot restored into a path
	// solver, and a path snapshot into an arc solver, keep the counters
	// and leave the solver cold.
	pathCfg := &Config{Pricing: PricingPath}
	warmPath := NewSolver(pathCfg)
	if _, err := warmPath.Solve(ledger, []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 5, Deadline: 2}}, 0); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		snap *SolverSnapshot
		cfg  *Config
	}{
		"arc into path": {warm.Snapshot(), pathCfg},
		"path into arc": {warmPath.Snapshot(), nil},
	} {
		if !c.snap.Valid {
			t.Fatalf("%s: solved solver snapshot not valid", name)
		}
		s4 := NewSolver(c.cfg)
		s4.Restore(nw, c.snap)
		if s4.valid {
			t.Errorf("%s: another formulation's basis accepted as warm state", name)
		}
		if s4.Stats() != c.snap.Stats {
			t.Errorf("%s: counters not restored", name)
		}
	}
}
