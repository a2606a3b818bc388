package extensions

import (
	"math"
	"strings"
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

func TestMaxBulkNoHeadroomDeliversNothing(t *testing.T) {
	nw, err := netmodel.Complete(3, func(_, _ netmodel.DC) float64 { return 2 }, 50)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw) // empty: nothing has been paid for yet
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 10, Deadline: 3, Release: 0}}
	res, err := MaxBulk(ledger, files, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.TotalDelivered > 1e-9 {
		t.Errorf("delivered %v with zero paid headroom, want 0", res.TotalDelivered)
	}
}

func TestMaxBulkRidesPaidLinks(t *testing.T) {
	nw, err := netmodel.Complete(3, func(_, _ netmodel.DC) float64 { return 2 }, 50)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	// Pay for 20 GB/slot on 0->1 by a past burst at slot 0.
	if err := ledger.Add(0, 1, 0, 20); err != nil {
		t.Fatal(err)
	}
	baseCost := ledger.CostPerSlot()
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 100, Deadline: 3, Release: 1}}
	res, err := MaxBulk(ledger, files, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Slots 1,2,3 each offer 20 GB of free headroom: 60 GB deliverable.
	if math.Abs(res.TotalDelivered-60) > 1e-5 {
		t.Errorf("delivered %v, want 60", res.TotalDelivered)
	}
	// Bulk transfers must be free.
	if math.Abs(res.CostPerSlot-baseCost) > 1e-6 {
		t.Errorf("cost changed from %v to %v; bulk must be free", baseCost, res.CostPerSlot)
	}
}

func TestMaxBulkMultiHopHeadroom(t *testing.T) {
	// Headroom on 0->2 and 2->1 lets bulk data relay through DC 2,
	// including a store-and-forward wait when the second hop's headroom
	// appears one slot later.
	nw, err := netmodel.Complete(3, func(_, _ netmodel.DC) float64 { return 1 }, 50)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	if err := ledger.Add(0, 2, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := ledger.Add(2, 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 100, Deadline: 3, Release: 1}}
	res, err := MaxBulk(ledger, files, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 0->2 usable slots 1..3 (30 GB in), but data entering at slot 3
	// arrives at layer 4 == deadline layer and cannot hop again; 2->1
	// usable slots 1..3 but nothing is at DC2 until layer 2. Deliverable:
	// in at slots 1,2 (20), out at slots 2,3 (20).
	if math.Abs(res.TotalDelivered-20) > 1e-5 {
		t.Errorf("delivered %v, want 20", res.TotalDelivered)
	}
}

func TestMaxUnderBudgetZeroBudget(t *testing.T) {
	nw, err := netmodel.Complete(3, func(_, _ netmodel.DC) float64 { return 2 }, 50)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 10, Deadline: 2, Release: 0}}
	res, err := MaxUnderBudget(ledger, files, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal || res.TotalDelivered > 1e-9 {
		t.Errorf("zero budget: status %v delivered %v, want optimal 0", res.Status, res.TotalDelivered)
	}
}

func TestMaxUnderBudgetScalesWithBudget(t *testing.T) {
	nw, err := netmodel.Complete(3, func(_, _ netmodel.DC) float64 { return 2 }, 50)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 40, Deadline: 2, Release: 0}}
	// Direct path price 2: delivering v GB over 2 slots costs 2*(v/2) = v
	// per slot at best (peak v/2 on the direct link).
	small, err := MaxUnderBudget(ledger, files, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	big, err := MaxUnderBudget(ledger, files, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if small.TotalDelivered >= big.TotalDelivered {
		t.Errorf("delivered %v with small budget vs %v with big", small.TotalDelivered, big.TotalDelivered)
	}
	if math.Abs(big.TotalDelivered-40) > 1e-5 {
		t.Errorf("big budget should deliver everything, got %v", big.TotalDelivered)
	}
	// Budget must be respected.
	if small.CostPerSlot > 10+1e-6 {
		t.Errorf("cost %v exceeds budget 10", small.CostPerSlot)
	}
	// With budget 10 the best is 10 GB of charge-per-slot worth: peak 5
	// on the direct link -> 10 GB delivered... unless relaying wins; it
	// cannot be cheaper than the cheapest path price.
	if small.TotalDelivered > 10+1e-5 {
		t.Errorf("delivered %v exceeds what budget 10 can buy", small.TotalDelivered)
	}
}

func TestMaxUnderBudgetInfeasibleWhenAlreadyOverBudget(t *testing.T) {
	nw, err := netmodel.Complete(2, func(_, _ netmodel.DC) float64 { return 5 }, 50)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	if err := ledger.Add(0, 1, 0, 10); err != nil { // already costs 50/slot
		t.Fatal(err)
	}
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 1, Deadline: 1, Release: 1}}
	res, err := MaxUnderBudget(ledger, files, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Infeasible {
		t.Errorf("status = %v, want infeasible (sunk cost 50 > budget 10)", res.Status)
	}
}

// TestMaxUnderBudgetRejectsNegativeBudget pins that a negative, NaN or
// infinite budget is rejected by MaxUnderBudget and AdmitFiles alike,
// whether or not the batch is empty.
func TestMaxUnderBudgetRejectsNegativeBudget(t *testing.T) {
	nw, err := netmodel.Complete(2, func(_, _ netmodel.DC) float64 { return 1 }, 10)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 5, Deadline: 2, Release: 0}}
	for _, budget := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, batch := range [][]netmodel.File{nil, files} {
			_, err := MaxUnderBudget(ledger, batch, 0, budget)
			if err == nil || !strings.Contains(err.Error(), "extensions: invalid budget") {
				t.Errorf("MaxUnderBudget(budget %v, %d files): err %v, want an invalid-budget error", budget, len(batch), err)
			}
			_, _, err = AdmitFiles(ledger, batch, 0, budget)
			if err == nil || !strings.Contains(err.Error(), "extensions: invalid budget") {
				t.Errorf("AdmitFiles(budget %v, %d files): err %v, want an invalid-budget error", budget, len(batch), err)
			}
		}
	}
}

func TestAdmitFilesGreedy(t *testing.T) {
	nw, err := netmodel.Complete(3, func(_, _ netmodel.DC) float64 { return 1 }, 100)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	files := []netmodel.File{
		{ID: 1, Src: 0, Dst: 1, Size: 10, Deadline: 2, Release: 0},
		{ID: 2, Src: 0, Dst: 1, Size: 30, Deadline: 2, Release: 0},
		{ID: 3, Src: 1, Dst: 2, Size: 6, Deadline: 2, Release: 0},
	}
	// Budget 12/slot. Cheapest delivery of file k costs ~Size/Deadline per
	// slot on its direct link (price 1). Sizes per slot: 5, 15, 3.
	// Greedy admits 3 (3) then 1 (5+3=8); adding 2 needs 15 more -> over.
	ids, res, err := AdmitFiles(ledger, files, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("admitted %v, want [1 3]", ids)
	}
	if res.CostPerSlot > 12+1e-6 {
		t.Errorf("cost %v exceeds budget", res.CostPerSlot)
	}
	for _, id := range ids {
		var want float64
		for _, f := range files {
			if f.ID == id {
				want = f.Size
			}
		}
		if got := res.Delivered[id]; math.Abs(got-want) > 1e-5 {
			t.Errorf("file %d delivered %v, want %v", id, got, want)
		}
	}
}

func TestAdmitFilesNoneFit(t *testing.T) {
	nw, err := netmodel.Complete(2, func(_, _ netmodel.DC) float64 { return 10 }, 100)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 50, Deadline: 1, Release: 0}}
	ids, res, err := AdmitFiles(ledger, files, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("admitted %v, want none", ids)
	}
	if res.Schedule.Len() != 0 {
		t.Error("expected empty schedule")
	}
}

func TestEmptyFilesExtensions(t *testing.T) {
	nw, err := netmodel.Complete(2, func(_, _ netmodel.DC) float64 { return 1 }, 10)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger(t, nw)
	for name, fn := range map[string]func() (*Result, error){
		"bulk":   func() (*Result, error) { return MaxBulk(ledger, nil, 0) },
		"budget": func() (*Result, error) { return MaxUnderBudget(ledger, nil, 0, 5) },
	} {
		res, err := fn()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Status != lp.Optimal || res.TotalDelivered != 0 {
			t.Errorf("%s: %+v", name, res)
		}
	}
}

// TestMaxBulkFreeUnderPercentileCharging checks that bulk transfers stay
// free under 80th-percentile charging, where paid headroom includes the
// full residual of slots already above the charged volume.
func TestMaxBulkFreeUnderPercentileCharging(t *testing.T) {
	nw, err := netmodel.Complete(3, func(_, _ netmodel.DC) float64 { return 2 }, 50)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := netmodel.NewLedger(nw, netmodel.Charging{Q: 80, PeriodSlots: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Link 0->1 carries 10, 20, 30, 40 and 50 GB in slots 0-4: the 80th
	// percentile charges 40 GB, slot 4 is above it and slots 1-3 below.
	for slot, v := range []float64{10, 20, 30, 40, 50} {
		if err := ledger.Add(0, 1, slot, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ledger.Add(1, 2, 2, 30); err != nil {
		t.Fatal(err)
	}
	base := ledger.CostPerSlot()
	files := []netmodel.File{
		{ID: 1, Src: 0, Dst: 1, Size: 100, Deadline: 4, Release: 1},
		{ID: 2, Src: 0, Dst: 2, Size: 100, Deadline: 3, Release: 1},
	}
	res, err := MaxBulk(ledger, files, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal || res.TotalDelivered < 1 {
		t.Fatalf("status %v, delivered %v: want a nontrivial free plan", res.Status, res.TotalDelivered)
	}
	if math.Abs(res.CostPerSlot-base) > 1e-6 {
		t.Errorf("cost per slot moved from %v to %v; bulk must be free", base, res.CostPerSlot)
	}
	trial := ledger.Clone()
	if err := res.Schedule.Apply(trial); err != nil {
		t.Fatal(err)
	}
	if got := trial.CostPerSlot(); math.Abs(got-base) > 1e-6 {
		t.Errorf("committing the plan moved the cost per slot from %v to %v", base, got)
	}
}

// TestUnreachableFileDeliversNothing checks both problems on a sparse
// overlay: a file whose destination is more hops away than its deadline
// delivers 0 without failing the solve, and the other files are served.
func TestUnreachableFileDeliversNothing(t *testing.T) {
	nw, err := netmodel.NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // chain 0 -> 1 -> 2 -> 3
		if err := nw.SetLink(netmodel.DC(i), netmodel.DC(i+1), 1, 50); err != nil {
			t.Fatal(err)
		}
	}
	ledger := newLedger(t, nw)
	for i := 0; i < 3; i++ { // pays for 20 GB a slot on every link
		if err := ledger.Add(netmodel.DC(i), netmodel.DC(i+1), 0, 20); err != nil {
			t.Fatal(err)
		}
	}
	files := []netmodel.File{
		{ID: 1, Src: 0, Dst: 3, Size: 10, Deadline: 2, Release: 1}, // three hops in two slots
		{ID: 2, Src: 0, Dst: 1, Size: 10, Deadline: 2, Release: 1},
	}
	bulk, err := MaxBulk(ledger, files, 1)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := MaxUnderBudget(ledger, files, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"MaxBulk": bulk, "MaxUnderBudget": budget} {
		if res.Status != lp.Optimal {
			t.Fatalf("%s: status %v", name, res.Status)
		}
		if res.Delivered[1] != 0 {
			t.Errorf("%s: unreachable file delivered %v, want 0", name, res.Delivered[1])
		}
		if math.Abs(res.Delivered[2]-10) > 1e-5 {
			t.Errorf("%s: reachable file delivered %v, want 10", name, res.Delivered[2])
		}
	}
}
