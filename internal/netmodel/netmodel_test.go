package netmodel

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewNetworkRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := NewNetwork(n); err == nil {
			t.Errorf("NewNetwork(%d): expected error", n)
		}
	}
}

func TestSetLinkValidation(t *testing.T) {
	nw, err := NewNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLink(0, 0, 1, 1); err == nil {
		t.Error("expected error for self-link")
	}
	if err := nw.SetLink(0, 5, 1, 1); err == nil {
		t.Error("expected error for out-of-range DC")
	}
	if err := nw.SetLink(0, 1, -1, 1); err == nil {
		t.Error("expected error for negative price")
	}
	if err := nw.SetLink(0, 1, 1, -1); err == nil {
		t.Error("expected error for negative capacity")
	}
	if err := nw.SetLink(0, 1, 2.5, 7); err != nil {
		t.Fatalf("SetLink: %v", err)
	}
	if !nw.HasLink(0, 1) || nw.HasLink(1, 0) {
		t.Error("link direction not respected")
	}
	if got := nw.Price(0, 1); got != 2.5 {
		t.Errorf("Price = %v, want 2.5", got)
	}
	if got := nw.Capacity(0, 1); got != 7 {
		t.Errorf("Capacity = %v, want 7", got)
	}
	if got := nw.Price(1, 0); got != 0 {
		t.Errorf("absent link price = %v, want 0", got)
	}
}

func TestCompleteNetwork(t *testing.T) {
	nw, err := Complete(5, func(i, j DC) float64 { return float64(i*10) + float64(j) }, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.NumLinks(); got != 20 {
		t.Errorf("NumLinks = %d, want 20", got)
	}
	if got := nw.Price(3, 1); got != 31 {
		t.Errorf("Price(3,1) = %v, want 31", got)
	}
	count := 0
	nw.Links(func(l Link, price, capacity float64) {
		if l.From == l.To {
			t.Errorf("self link %v emitted", l)
		}
		if capacity != 30 {
			t.Errorf("capacity = %v, want 30", capacity)
		}
		count++
	})
	if count != 20 {
		t.Errorf("Links visited %d, want 20", count)
	}
}

func TestFileValidate(t *testing.T) {
	nw, err := Complete(3, func(_, _ DC) float64 { return 1 }, 10)
	if err != nil {
		t.Fatal(err)
	}
	valid := File{ID: 1, Src: 0, Dst: 2, Size: 5, Deadline: 2, Release: 0}
	if err := valid.Validate(nw); err != nil {
		t.Errorf("valid file rejected: %v", err)
	}
	bad := []File{
		{ID: 2, Src: 0, Dst: 0, Size: 5, Deadline: 2},
		{ID: 3, Src: 0, Dst: 2, Size: -1, Deadline: 2},
		{ID: 4, Src: 0, Dst: 2, Size: 5, Deadline: 0},
		{ID: 5, Src: 0, Dst: 9, Size: 5, Deadline: 2},
		{ID: 6, Src: 0, Dst: 2, Size: 5, Deadline: 2, Release: -1},
		{ID: 7, Src: 0, Dst: 2, Size: math.NaN(), Deadline: 2},
	}
	for _, f := range bad {
		if err := f.Validate(nw); err == nil {
			t.Errorf("file %d: expected validation error", f.ID)
		}
	}
}

func TestDesiredRate(t *testing.T) {
	f := File{Size: 6, Deadline: 3}
	if got := f.DesiredRate(); got != 2 {
		t.Errorf("DesiredRate = %v, want 2", got)
	}
}

func TestCharging100thIsRunningMax(t *testing.T) {
	c := MaxCharging(100)
	vols := []float64{3, 7, 2, 7, 1}
	if got := c.ChargedVolume(vols); got != 7 {
		t.Errorf("charged = %v, want 7", got)
	}
	if got := c.ChargedVolume(nil); got != 0 {
		t.Errorf("charged empty = %v, want 0", got)
	}
}

func TestChargingPercentileDropsPeaks(t *testing.T) {
	// 10-slot period, 90th percentile: the single largest slot is free.
	c := Charging{Q: 90, PeriodSlots: 10}
	vols := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 100}
	if got := c.ChargedVolume(vols); got != 1 {
		t.Errorf("charged = %v, want 1 (peak dropped)", got)
	}
}

func TestChargingPercentileZeroPadding(t *testing.T) {
	// Only 2 of 10 slots have traffic; the 50th percentile lands on a
	// zero-padded slot.
	c := Charging{Q: 50, PeriodSlots: 10}
	if got := c.ChargedVolume([]float64{5, 9}); got != 0 {
		t.Errorf("charged = %v, want 0", got)
	}
	// 95th percentile of 10 slots is the 10th sorted value: the max here.
	c = Charging{Q: 95, PeriodSlots: 10}
	if got := c.ChargedVolume([]float64{5, 9}); got != 9 {
		t.Errorf("charged = %v, want 9", got)
	}
}

func TestChargingMatchesNaiveSort(t *testing.T) {
	f := func(seed int64, qRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := math.Mod(math.Abs(qRaw), 100)
		if q == 0 {
			q = 100
		}
		period := 1 + rng.Intn(30)
		used := rng.Intn(period + 1)
		vols := make([]float64, used)
		for i := range vols {
			vols[i] = rng.Float64() * 50
		}
		c := Charging{Q: q, PeriodSlots: period}
		got := c.ChargedVolume(vols)
		// Reference: pad, sort, index at the exact rank ceil(q/100*period),
		// computed with rational arithmetic so the reference itself cannot
		// suffer the float over-ranking bug percentileRank guards against.
		padded := make([]float64, period)
		copy(padded, vols)
		sort.Float64s(padded)
		want := padded[exactRankRef(q, period)-1]
		return math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChargingMonotoneInTraffic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		period := 1 + rng.Intn(20)
		vols := make([]float64, rng.Intn(period+1))
		for i := range vols {
			vols[i] = rng.Float64() * 10
		}
		c := Charging{Q: 1 + 99*rng.Float64(), PeriodSlots: period}
		before := c.ChargedVolume(vols)
		// Adding traffic to any slot can never reduce the charge.
		if len(vols) == 0 {
			return true
		}
		k := rng.Intn(len(vols))
		vols[k] += rng.Float64() * 10
		after := c.ChargedVolume(vols)
		return after >= before-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func newTestLedger(t *testing.T) *Ledger {
	t.Helper()
	nw, err := Complete(3, func(_, _ DC) float64 { return 2 }, 10)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLedger(nw, MaxCharging(100))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLedgerAddAndCharge(t *testing.T) {
	l := newTestLedger(t)
	if err := l.Add(0, 1, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(0, 1, 2, 6); err != nil {
		t.Fatal(err)
	}
	if got := l.VolumeAt(0, 1, 2); got != 6 {
		t.Errorf("VolumeAt = %v, want 6", got)
	}
	if got := l.ChargedVolume(0, 1); got != 6 {
		t.Errorf("ChargedVolume = %v, want 6", got)
	}
	if got := l.ChargedVolume(1, 0); got != 0 {
		t.Errorf("reverse link charged = %v, want 0", got)
	}
	// cost per slot: 2 * 6 on one link only.
	if got := l.CostPerSlot(); math.Abs(got-12) > 1e-12 {
		t.Errorf("CostPerSlot = %v, want 12", got)
	}
	if got := l.TotalCost(); math.Abs(got-1200) > 1e-12 {
		t.Errorf("TotalCost = %v, want 1200", got)
	}
}

func TestLedgerRejectsBadInput(t *testing.T) {
	l := newTestLedger(t)
	if err := l.Add(0, 0, 0, 1); err == nil {
		t.Error("expected error for self-link traffic")
	}
	if err := l.Add(0, 1, -1, 1); err == nil {
		t.Error("expected error for negative slot")
	}
	if err := l.Add(0, 1, 0, -1); err == nil {
		t.Error("expected error for negative amount")
	}
	if err := l.Add(0, 1, 0, math.Inf(1)); err == nil {
		t.Error("expected error for infinite amount")
	}
}

func TestLedgerResidualAndHeadroom(t *testing.T) {
	l := newTestLedger(t) // capacity 10 per link
	if err := l.Add(0, 1, 0, 7); err != nil {
		t.Fatal(err)
	}
	if got := l.Residual(0, 1, 0); got != 3 {
		t.Errorf("Residual slot 0 = %v, want 3", got)
	}
	if got := l.Residual(0, 1, 1); got != 10 {
		t.Errorf("Residual slot 1 = %v, want 10", got)
	}
	// X = 7; slot 1 has no traffic, so 7 units ride free there.
	if got := l.PaidHeadroom(0, 1, 1); got != 7 {
		t.Errorf("PaidHeadroom slot 1 = %v, want 7", got)
	}
	// Slot 0 is at the peak: no free headroom.
	if got := l.PaidHeadroom(0, 1, 0); got != 0 {
		t.Errorf("PaidHeadroom slot 0 = %v, want 0", got)
	}
}

func TestLedgerClone(t *testing.T) {
	l := newTestLedger(t)
	if err := l.Add(0, 1, 0, 5); err != nil {
		t.Fatal(err)
	}
	cp := l.Clone()
	if err := cp.Add(0, 1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if got := l.VolumeAt(0, 1, 0); got != 5 {
		t.Errorf("original mutated by clone: %v", got)
	}
	if got := cp.VolumeAt(0, 1, 0); got != 10 {
		t.Errorf("clone VolumeAt = %v, want 10", got)
	}
}

func TestFig1Topology(t *testing.T) {
	nw, file, err := Fig1Topology()
	if err != nil {
		t.Fatal(err)
	}
	if err := file.Validate(nw); err != nil {
		t.Fatal(err)
	}
	if got := nw.Price(1, 2); got != 10 {
		t.Errorf("direct price = %v, want 10", got)
	}
	if got := nw.Price(1, 0) + nw.Price(0, 2); got != 4 {
		t.Errorf("relay price = %v, want 4", got)
	}
}

func TestFig3Topology(t *testing.T) {
	nw, files, err := Fig3Topology(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("files = %d, want 2", len(files))
	}
	for _, f := range files {
		if err := f.Validate(nw); err != nil {
			t.Errorf("file %d: %v", f.ID, err)
		}
		if f.Release != 3 {
			t.Errorf("file %d release = %d, want 3", f.ID, f.Release)
		}
	}
	// Desired rates from the paper: r1 = 2, r2 = 5.
	if r := files[0].DesiredRate(); r != 2 {
		t.Errorf("r1 = %v, want 2", r)
	}
	if r := files[1].DesiredRate(); r != 5 {
		t.Errorf("r2 = %v, want 5", r)
	}
	// Direct transfer of both files costs 52 per interval.
	direct := nw.Price(1, 3)*files[0].DesiredRate() + nw.Price(0, 3)*files[1].DesiredRate()
	if math.Abs(direct-52) > 1e-12 {
		t.Errorf("direct cost = %v, want 52", direct)
	}
	// Flow-based: file 2 on D1->D4, file 1 on D2->D3->D4 costs 50.
	flowCost := nw.Price(0, 3)*5 + (nw.Price(1, 2)+nw.Price(2, 3))*2
	if math.Abs(flowCost-50) > 1e-12 {
		t.Errorf("flow-based cost = %v, want 50", flowCost)
	}
}

func TestEvalSettings(t *testing.T) {
	settings := EvalSettings()
	if len(settings) != 4 {
		t.Fatalf("settings = %d, want 4", len(settings))
	}
	for _, s := range settings {
		got, err := SettingByFigure(s.Figure)
		if err != nil {
			t.Errorf("SettingByFigure(%d): %v", s.Figure, err)
		}
		if got != s {
			t.Errorf("SettingByFigure(%d) = %+v, want %+v", s.Figure, got, s)
		}
	}
	if _, err := SettingByFigure(99); err == nil {
		t.Error("expected error for unknown figure")
	}
}
