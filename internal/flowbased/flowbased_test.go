package flowbased

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
)

func newLedger(t *testing.T, nw *netmodel.Network) *netmodel.Ledger {
	t.Helper()
	l, err := netmodel.NewLedger(nw, netmodel.MaxCharging(100))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFig3FlowBased reproduces the flow-based outcome of the paper's Fig. 3
// worked example: File 2 takes D1->D4, File 1 is forced onto D2->D3->D4,
// and the cost per interval is 50.
func TestFig3FlowBased(t *testing.T) {
	nw, files, err := netmodel.Fig3Topology(3)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	res, err := Solve(ledger, files, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.CostPerSlot-50) > 1e-5 {
		t.Errorf("flow-based cost = %v, want 50 (paper Sec. V)", res.CostPerSlot)
	}
	// File 2 must ride D1->D4 at rate 5.
	var rate14 float64
	for _, lr := range res.Rates[2] {
		if lr.From == 0 && lr.To == 3 {
			rate14 = lr.Rate
		}
	}
	if math.Abs(rate14-5) > 1e-6 {
		t.Errorf("file 2 rate on D1->D4 = %v, want 5", rate14)
	}
	// File 1 cannot touch D1->D4 (saturated during its window).
	for _, lr := range res.Rates[1] {
		if lr.From == 0 && lr.To == 3 && lr.Rate > 1e-6 {
			t.Errorf("file 1 uses saturated link D1->D4 at rate %v", lr.Rate)
		}
	}
}

func TestFig3GreedyMatchesNarrative(t *testing.T) {
	nw, files, err := netmodel.Fig3Topology(3)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	res, err := SolveGreedy(ledger, files, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CostPerSlot-50) > 1e-5 {
		t.Errorf("greedy cost = %v, want 50", res.CostPerSlot)
	}
	// File 1 must take D2->D3->D4 (the cheapest available path).
	want := map[netmodel.Link]bool{
		{From: 1, To: 2}: true,
		{From: 2, To: 3}: true,
	}
	for _, lr := range res.Rates[1] {
		if !want[netmodel.Link{From: lr.From, To: lr.To}] {
			t.Errorf("file 1 uses unexpected link %d->%d", lr.From, lr.To)
		}
	}
}

func TestFig3TwoPhaseMatchesSingleLP(t *testing.T) {
	nw, files, err := netmodel.Fig3Topology(3)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	// Empty ledger: no paid headroom, so phase 1 is trivial and phase 2
	// must equal the single LP.
	tp, err := SolveTwoPhase(ledger, files, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Status != lp.Optimal {
		t.Fatalf("status = %v", tp.Status)
	}
	if math.Abs(tp.CostPerSlot-50) > 1e-5 {
		t.Errorf("two-phase cost = %v, want 50", tp.CostPerSlot)
	}
}

func TestDirectFig3(t *testing.T) {
	nw, files, err := netmodel.Fig3Topology(3)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	res, err := Direct(ledger, files, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CostPerSlot-52) > 1e-6 {
		t.Errorf("direct cost = %v, want 52 (paper Sec. V)", res.CostPerSlot)
	}
}

func TestDirectReportsMissingLink(t *testing.T) {
	nw, err := netmodel.NewNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLink(0, 1, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLink(1, 2, 1, 10); err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 2, Size: 5, Deadline: 2, Release: 0}}
	_, err = Direct(ledger, files, 0)
	var ue *UnroutedError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnroutedError", err)
	}
}

func TestFlowInfeasibleWhenRatesExceedCapacity(t *testing.T) {
	nw, err := netmodel.NewNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLink(0, 1, 1, 4); err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 10, Deadline: 2, Release: 0}}
	res, err := Solve(ledger, files, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Infeasible {
		t.Errorf("status = %v, want infeasible (rate 5 on capacity 4)", res.Status)
	}
}

func TestTwoPhaseUsesPaidHeadroom(t *testing.T) {
	// A link with history: D0->D1 already charged at 10 GB, idle in the
	// upcoming slots. A new file of rate <= 10 must ride it for free.
	nw, err := netmodel.Complete(3, func(i, j netmodel.DC) float64 { return 5 }, 20)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	if err := ledger.Add(0, 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	baseCost := ledger.CostPerSlot() // 5 * 10
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 16, Deadline: 2, Release: 1}}
	res, err := SolveTwoPhase(ledger, files, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Rate 8 <= 10 paid headroom: the marginal cost must be zero.
	if math.Abs(res.CostPerSlot-baseCost) > 1e-5 {
		t.Errorf("cost = %v, want %v (free ride on paid link)", res.CostPerSlot, baseCost)
	}
}

func TestSingleLPDominatesTwoPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(3)
		nw, err := netmodel.Complete(n, func(i, j netmodel.DC) float64 { return 1 + 9*rng.Float64() }, 25)
		if err != nil {
			t.Fatal(err)
		}
		ledger := newLedger(t, nw)
		// Random history.
		for k := 0; k < 5; k++ {
			i := netmodel.DC(rng.Intn(n))
			j := netmodel.DC((int(i) + 1 + rng.Intn(n-1)) % n)
			if err := ledger.Add(i, j, rng.Intn(2), 10*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		var files []netmodel.File
		for k := 0; k < 1+rng.Intn(4); k++ {
			src := netmodel.DC(rng.Intn(n))
			dst := netmodel.DC((int(src) + 1 + rng.Intn(n-1)) % n)
			files = append(files, netmodel.File{
				ID: k + 1, Src: src, Dst: dst,
				Size: 1 + 20*rng.Float64(), Deadline: 1 + rng.Intn(3), Release: 2,
			})
		}
		single, err := Solve(ledger, files, 2)
		if err != nil {
			t.Fatalf("trial %d: single: %v", trial, err)
		}
		two, err := SolveTwoPhase(ledger, files, 2)
		if err != nil {
			t.Fatalf("trial %d: two-phase: %v", trial, err)
		}
		if single.Status != lp.Optimal || two.Status != lp.Optimal {
			continue
		}
		if single.CostPerSlot > two.CostPerSlot+1e-5*(1+two.CostPerSlot) {
			t.Fatalf("trial %d: single LP %v worse than two-phase %v",
				trial, single.CostPerSlot, two.CostPerSlot)
		}
	}
}

func TestGreedyNeverBeatsLP(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(3)
		nw, err := netmodel.Complete(n, func(i, j netmodel.DC) float64 { return 1 + 9*rng.Float64() }, 40)
		if err != nil {
			t.Fatal(err)
		}
		ledger := newLedger(t, nw)
		var files []netmodel.File
		for k := 0; k < 1+rng.Intn(4); k++ {
			src := netmodel.DC(rng.Intn(n))
			dst := netmodel.DC((int(src) + 1 + rng.Intn(n-1)) % n)
			files = append(files, netmodel.File{
				ID: k + 1, Src: src, Dst: dst,
				Size: 1 + 15*rng.Float64(), Deadline: 1 + rng.Intn(3), Release: 0,
			})
		}
		lpRes, err := Solve(ledger, files, 0)
		if err != nil || lpRes.Status != lp.Optimal {
			continue
		}
		gr, err := SolveGreedy(ledger, files, 0)
		if err != nil {
			continue // greedy may fail where the LP splits paths
		}
		if lpRes.CostPerSlot > gr.CostPerSlot+1e-5*(1+gr.CostPerSlot) {
			t.Fatalf("trial %d: LP %v worse than greedy %v", trial, lpRes.CostPerSlot, gr.CostPerSlot)
		}
	}
}

func TestScheduleVolumesMatchRates(t *testing.T) {
	nw, files, err := netmodel.Fig3Topology(0)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	res, err := Solve(ledger, files, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		for _, lr := range res.Rates[f.ID] {
			for s := f.Release; s < f.Release+f.Deadline; s++ {
				// Aggregate over files must at least carry this file's rate.
				got := res.Schedule.TransferVolume(lr.From, lr.To, s)
				if got+1e-9 < lr.Rate {
					t.Errorf("slot %d link %d->%d: volume %v < rate %v", s, lr.From, lr.To, got, lr.Rate)
				}
			}
		}
	}
	// Total delivered volume equals total file volume.
	want := files[0].Size + files[1].Size
	delivered := 0.0
	for id, rates := range res.Rates {
		var f netmodel.File
		for _, ff := range files {
			if ff.ID == id {
				f = ff
			}
		}
		for _, lr := range rates {
			if lr.To == f.Dst {
				delivered += lr.Rate * float64(f.Deadline)
			}
		}
	}
	if math.Abs(delivered-want) > 1e-5 {
		t.Errorf("delivered %v, want %v", delivered, want)
	}
}

func TestEmptyFilesAllSchedulers(t *testing.T) {
	nw, _, err := netmodel.Fig1Topology()
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	for name, fn := range map[string]func() (*Result, error){
		"solve":    func() (*Result, error) { return Solve(ledger, nil, 0) },
		"twophase": func() (*Result, error) { return SolveTwoPhase(ledger, nil, 0) },
		"greedy":   func() (*Result, error) { return SolveGreedy(ledger, nil, 0) },
		"direct":   func() (*Result, error) { return Direct(ledger, nil, 0) },
	} {
		res, err := fn()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Status != lp.Optimal || res.Schedule.Len() != 0 {
			t.Errorf("%s: unexpected result %+v", name, res)
		}
	}
}
