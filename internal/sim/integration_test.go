package sim

import (
	"strings"
	"testing"

	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/workload"
)

// TestAllSchedulersOneTrace replays one identical workload through every
// scheduler and checks cross-cutting invariants: runs complete, costs are
// positive and non-decreasing over time, the two LP-based flow variants
// order correctly, and the optimal flow LP never loses to the greedy
// heuristic.
func TestAllSchedulersOneTrace(t *testing.T) {
	nw, err := netmodel.Complete(6, workload.UniformPrices(23), 60)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewUniform(workload.UniformConfig{
		NumDCs: 6, MinFiles: 1, MaxFiles: 3,
		MinSizeGB: 10, MaxSizeGB: 60, MaxDeadline: 4, FixedDeadline: true, Seed: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	const slots = 8
	trace := workload.Record(gen, slots)

	names := []string{"postcard", "postcard-nostore", "flow-based", "flow-two-phase", "flow-greedy", "direct"}
	finals := make(map[string]float64, len(names))
	for _, name := range names {
		var sched Scheduler
		switch name {
		case "postcard":
			sched = &Postcard{}
		case "postcard-nostore":
			sched = &Postcard{Label: name}
		case "flow-based":
			sched = &Flow{Variant: FlowLP}
		case "flow-two-phase":
			sched = &Flow{Variant: FlowTwoPhase}
		case "flow-greedy":
			sched = &Flow{Variant: FlowGreedy}
		case "direct":
			sched = &Flow{Variant: FlowDirect}
		}
		ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(slots))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := Run(ledger, sched, trace, slots)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rs.FinalCostPerSlot <= 0 {
			t.Errorf("%s: nonpositive final cost %v", name, rs.FinalCostPerSlot)
		}
		for i := 1; i < len(rs.CostSeries); i++ {
			if rs.CostSeries[i] < rs.CostSeries[i-1]-1e-9 {
				t.Errorf("%s: cost series not monotone at %d", name, i)
			}
		}
		finals[name] = rs.FinalCostPerSlot
	}
	// The single LP dominates the two-phase decomposition slot by slot,
	// but online commitment order can occasionally invert the final cost;
	// allow a small margin.
	if finals["flow-based"] > finals["flow-two-phase"]*1.15 {
		t.Errorf("flow LP (%v) much worse than two-phase (%v)", finals["flow-based"], finals["flow-two-phase"])
	}
	if finals["flow-based"] > finals["flow-greedy"]*1.15 {
		t.Errorf("flow LP (%v) much worse than greedy (%v)", finals["flow-based"], finals["flow-greedy"])
	}
	// Direct never beats the optimal flow LP (direct is one feasible flow).
	if finals["flow-based"] > finals["direct"]+1e-6 {
		t.Errorf("flow LP (%v) worse than direct (%v)", finals["flow-based"], finals["direct"])
	}
	t.Logf("final costs: %v", finals)
}

// TestRunRejectsRepeatedFileID: a trace whose slot repeats a file ID must
// stop the run with an error naming the ID. Shedding it instead would drop
// every file with that ID while counting only one drop.
func TestRunRejectsRepeatedFileID(t *testing.T) {
	nw, err := netmodel.Complete(4, workload.UniformPrices(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	trace := &workload.Trace{Files: []netmodel.File{
		{ID: 1, Src: 0, Dst: 1, Size: 10, Release: 0, Deadline: 2},
		{ID: 1, Src: 2, Dst: 3, Size: 10, Release: 0, Deadline: 2},
		{ID: 2, Src: 1, Dst: 3, Size: 10, Release: 1, Deadline: 2},
	}}
	for _, sched := range []Scheduler{
		&Postcard{}, &Fast{NoRepublish: true}, &Flow{Variant: FlowLP},
		&Flow{Variant: FlowTwoPhase}, &Flow{Variant: FlowGreedy}, &Flow{Variant: FlowDirect},
	} {
		ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(3))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := Run(ledger, sched, trace, 3)
		if err == nil {
			t.Errorf("%s: run finished (%d scheduled, %d dropped) on a repeated file ID",
				sched.Name(), rs.ScheduledFiles, rs.DroppedFiles)
		} else if !strings.Contains(err.Error(), "ID 1") {
			t.Errorf("%s: error does not name the repeated ID: %v", sched.Name(), err)
		}
	}
}
