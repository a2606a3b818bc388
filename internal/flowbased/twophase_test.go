package flowbased

import (
	"math"
	"testing"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
)

// TestTwoPhasePartialHeadroom: when the paid headroom covers only part of
// the desired rate, phase 1 routes that part for free and phase 2 pays for
// the remainder — the total cost must sit strictly between the all-free
// and all-paid extremes.
func TestTwoPhasePartialHeadroom(t *testing.T) {
	nw, err := netmodel.Complete(2, func(_, _ netmodel.DC) float64 { return 4 }, 50)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(100))
	if err != nil {
		t.Fatal(err)
	}
	// Paid peak of 6 GB on the only useful link (slot 0); the new file
	// needs rate 10 over slots 1-2.
	if err := ledger.Add(0, 1, 0, 6); err != nil {
		t.Fatal(err)
	}
	base := ledger.CostPerSlot() // 4 * 6 = 24
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 20, Deadline: 2, Release: 1}}
	res, err := SolveTwoPhase(ledger, files, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Rate 10 with 6 free: marginal cost = 4 * (10 - 6) = 16.
	wantMarginal := 16.0
	if marginal := res.CostPerSlot - base; math.Abs(marginal-wantMarginal) > 1e-5 {
		t.Errorf("marginal cost = %v, want %v", marginal, wantMarginal)
	}
	// The realized schedule must carry the full rate.
	for _, s := range []int{1, 2} {
		if got := res.Schedule.TransferVolume(0, 1, s); math.Abs(got-10) > 1e-6 {
			t.Errorf("slot %d volume = %v, want 10", s, got)
		}
	}
}

// TestTwoPhaseFullHeadroomIsFree: λ = 1 when everything fits under the
// paid peaks.
func TestTwoPhaseFullHeadroomIsFree(t *testing.T) {
	nw, err := netmodel.Complete(2, func(_, _ netmodel.DC) float64 { return 7 }, 50)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := ledger.Add(0, 1, 0, 30); err != nil {
		t.Fatal(err)
	}
	base := ledger.CostPerSlot()
	files := []netmodel.File{{ID: 1, Src: 0, Dst: 1, Size: 40, Deadline: 2, Release: 1}}
	res, err := SolveTwoPhase(ledger, files, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CostPerSlot-base) > 1e-5 {
		t.Errorf("cost = %v, want unchanged %v (rate 20 under paid 30)", res.CostPerSlot, base)
	}
}
