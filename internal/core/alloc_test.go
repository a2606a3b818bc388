package core

import (
	"testing"

	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/timegraph"
)

// TestPrepareRecycledAllocs pins the buffer-reuse property of the LP
// construction path: once a recycled builder has been through one slot, a
// subsequent prepare — model reset, variable universe walk, crash-route
// marking, and every capacity/charge/conservation row — must stay within a
// small constant allocation budget. The residue is the per-file
// reachability bookkeeping (BFS distance vectors and the crash-route path),
// which is O(files x DCs) small slices; the model rows, columns, key
// registries and pricing registries must all come from the recycled
// backing. A regression here turns every slot of a long simulation back
// into an allocation storm (see TestSteadyStateIterationAllocs for the
// same property one layer down).
func TestPrepareRecycledAllocs(t *testing.T) {
	nw := chainNetwork(t, 6, 50)
	ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(64))
	if err != nil {
		t.Fatal(err)
	}
	files := []netmodel.File{
		{ID: 0, Src: 0, Dst: 3, Size: 9, Release: 0, Deadline: 3},
		{ID: 1, Src: 1, Dst: 5, Size: 14, Release: 0, Deadline: 2},
		{ID: 2, Src: 4, Dst: 2, Size: 6, Release: 1, Deadline: 3},
	}
	tg, err := timegraph.Build(nw, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	conf := Config{}
	b, err := prepare(tg, ledger, files, conf, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		b, err = prepare(tg, ledger, files, conf, b)
		if err != nil {
			t.Fatal(err)
		}
	})
	// 3 files x (2 BFS passes + crash-route path) of small slices, plus the
	// per-call reachability header; everything else is recycled. Measured
	// 58; the bound carries ~50% headroom.
	const budget = 90
	t.Logf("allocs/slot: %.1f", allocs)
	if allocs > budget {
		t.Fatalf("recycled prepare allocates %.0f times per slot, want <= %d", allocs, budget)
	}
}

// TestPathSolverSlotAllocs is the per-slot allocation pin for the path
// solver: a warm Solver slot under PricingPath — basis mapping, path master
// build, every pricing round's restricted-master re-solve, and plan
// extraction — must stay within a measured budget. The LP rounds assemble,
// factorize and iterate in the master Model's retained workspace; what
// remains is each round's returned Solution, the oracle's path searches and
// lazily created rows, and the Result with its schedule.
func TestPathSolverSlotAllocs(t *testing.T) {
	ledger, _ := pathTestInstance(t, 6, 50, 23)
	solver := NewSolver(&Config{Pricing: PricingPath})
	var files []netmodel.File
	for k, p := range []netmodel.Link{{From: 0, To: 3}, {From: 1, To: 4}, {From: 5, To: 2}} {
		files = append(files, netmodel.File{ID: k, Src: p.From, Dst: p.To, Size: 8 + float64(k), Release: 0, Deadline: 3})
	}
	slot := func() {
		if _, err := solver.Solve(ledger, files, 0); err != nil {
			t.Fatal(err)
		}
	}
	slot()
	allocs := testing.AllocsPerRun(20, slot)
	// Measured 98; the bound carries ~50% headroom.
	const budget = 150
	t.Logf("allocs/slot: %.1f", allocs)
	if allocs > budget {
		t.Fatalf("warm path slot allocates %.0f times, want <= %d", allocs, budget)
	}
}
