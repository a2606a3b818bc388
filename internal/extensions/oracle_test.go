package extensions

// The arc-model LP that solved MaxBulk and MaxUnderBudget before they moved
// onto core's path master (solveMaxVolume and capacityFunc, kept verbatim),
// and the tests that hold the path master to it.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
	"github.com/interdc/postcard/internal/timegraph"
)

// capacityFunc abstracts the per-edge capacity the two problems differ on.
type capacityFunc func(i, j netmodel.DC, slot int) float64

// solveMaxVolume builds and solves the shared time-expanded LP.
func solveMaxVolume(ledger *netmodel.Ledger, files []netmodel.File, t int,
	capacity capacityFunc, budgetPerSlot *float64) (*Result, error) {

	nw := ledger.Network()
	if len(files) == 0 {
		return &Result{
			Schedule:    &schedule.Schedule{},
			Delivered:   map[int]float64{},
			CostPerSlot: ledger.CostPerSlot(),
			Status:      lp.Optimal,
		}, nil
	}
	horizon, err := netmodel.CheckBatch(nw, files, t)
	if err != nil {
		return nil, err
	}
	tg, err := timegraph.Build(nw, t, horizon)
	if err != nil {
		return nil, err
	}
	m := lp.NewModel()
	m.SetMaximize()
	// Delivered volume per file.
	delivered := make([]lp.VarID, len(files))
	for k, f := range files {
		delivered[k] = m.AddVariable(0, f.Size, 1, fmt.Sprintf("delivered_f%d", f.ID))
	}
	// Transfer variables over each file's pruned subgraph. A structurally
	// undeliverable file has none (nil mvars[k]); its delivery is forced to
	// zero below.
	mvars := make([][]lp.VarID, len(files))
	reach := make([]timegraph.Reachability, len(files))
	for k, f := range files {
		reach[k] = tg.FileReachability(f)
		if reach[k].FromSrc[f.Dst] > f.Deadline {
			continue
		}
		mvars[k] = make([]lp.VarID, tg.NumEdges())
		for i := range mvars[k] {
			mvars[k][i] = -1
		}
		tg.WindowEdges(f, func(e timegraph.Edge) {
			if !reach[k].EdgeAllowed(f, e) {
				return
			}
			obj := 0.0
			if !e.Storage {
				obj = -netmodel.Epsilon
			}
			mvars[k][e.Index] = m.AddVariable(0, f.Size, obj,
				fmt.Sprintf("M_f%d_%d>%d@%d", f.ID, int(e.From), int(e.To), e.Slot))
		})
	}
	// Optional budget machinery.
	var xvars map[netmodel.Link]lp.VarID
	if budgetPerSlot != nil {
		xvars = make(map[netmodel.Link]lp.VarID)
		var bidx []lp.VarID
		var bval []float64
		nw.Links(func(l netmodel.Link, price, _ float64) {
			v := m.AddVariable(ledger.ChargedVolume(l.From, l.To), math.Inf(1), 0, fmt.Sprintf("X_%s", l))
			xvars[l] = v
			bidx = append(bidx, v)
			bval = append(bval, price)
		})
		if _, err := m.AddConstraint(lp.LE, *budgetPerSlot, bidx, bval); err != nil {
			return nil, err
		}
	}
	// Capacity (and charge epigraph rows under a budget).
	var rowErr error
	tg.Edges(func(e timegraph.Edge) {
		if rowErr != nil || e.Storage {
			return
		}
		var idx []lp.VarID
		var val []float64
		for k := range files {
			if mvars[k] == nil {
				continue
			}
			if v := mvars[k][e.Index]; v >= 0 {
				idx = append(idx, v)
				val = append(val, 1)
			}
		}
		if len(idx) == 0 {
			return
		}
		if _, err := m.AddConstraint(lp.LE, capacity(e.From, e.To, e.Slot), idx, val); err != nil {
			rowErr = err
			return
		}
		if xvars != nil {
			committed := ledger.VolumeAt(e.From, e.To, e.Slot)
			idx = append(idx, xvars[netmodel.Link{From: e.From, To: e.To}])
			val = append(val, -1)
			if _, err := m.AddConstraint(lp.LE, -committed, idx, val); err != nil {
				rowErr = err
			}
		}
	})
	if rowErr != nil {
		return nil, rowErr
	}
	// Conservation with the delivered variable as source supply and
	// destination demand.
	n := nw.NumDCs()
	for k, f := range files {
		if mvars[k] == nil {
			// Force zero delivery.
			if _, err := m.AddConstraint(lp.EQ, 0, []lp.VarID{delivered[k]}, []float64{1}); err != nil {
				return nil, err
			}
			continue
		}
		first, last, _ := tg.FileWindow(f)
		deadlineLayer := f.Release + f.Deadline
		if clamp := tg.Start() + tg.Horizon(); deadlineLayer > clamp {
			deadlineLayer = clamp
		}
		r := reach[k]
		for layer := first; layer <= deadlineLayer; layer++ {
			for dc := 0; dc < n; dc++ {
				d := netmodel.DC(dc)
				if !r.Allowed(f, d, layer) {
					continue
				}
				var idx []lp.VarID
				var val []float64
				if layer <= last {
					for to := 0; to < n; to++ {
						if e, ok := tg.EdgeAt(d, netmodel.DC(to), layer); ok {
							if v := mvars[k][e.Index]; v >= 0 {
								idx = append(idx, v)
								val = append(val, 1)
							}
						}
					}
				}
				if layer > first {
					for from := 0; from < n; from++ {
						if e, ok := tg.EdgeAt(netmodel.DC(from), d, layer-1); ok {
							if v := mvars[k][e.Index]; v >= 0 {
								idx = append(idx, v)
								val = append(val, -1)
							}
						}
					}
				}
				switch {
				case layer == f.Release && d == f.Src:
					idx = append(idx, delivered[k])
					val = append(val, -1)
				case layer == deadlineLayer && d == f.Dst:
					idx = append(idx, delivered[k])
					val = append(val, 1)
				}
				if len(idx) == 0 {
					continue
				}
				if _, err := m.AddConstraint(lp.EQ, 0, idx, val); err != nil {
					return nil, err
				}
			}
		}
	}
	sol, err := m.Solve(nil)
	if err != nil {
		return nil, fmt.Errorf("extensions: solving max-volume LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return &Result{Status: sol.Status}, nil
	}
	res := &Result{
		Schedule:  &schedule.Schedule{},
		Delivered: make(map[int]float64, len(files)),
		Status:    lp.Optimal,
	}
	const tol = 1e-5
	var effective []netmodel.File
	for k, f := range files {
		dv := sol.Value(delivered[k])
		if dv < 0 {
			dv = 0
		}
		res.Delivered[f.ID] = dv
		res.TotalDelivered += dv
		if dv > tol {
			ef := f
			ef.Size = dv
			effective = append(effective, ef)
		}
		for idx, v := range mvars[k] {
			if v < 0 {
				continue
			}
			if amount := sol.Value(v); amount > tol {
				e := tg.Edge(idx)
				res.Schedule.Add(schedule.Action{
					FileID: f.ID, From: e.From, To: e.To, Slot: e.Slot, Amount: amount,
				})
			}
		}
	}
	// Independent verification against the partial-delivery file set.
	vc := schedule.VerifyConfig{
		Residual: func(i, j netmodel.DC, slot int) float64 { return ledger.Residual(i, j, slot) },
		Tol:      1e-4,
	}
	if err := schedule.Verify(res.Schedule, nw, effective, vc); err != nil {
		return nil, fmt.Errorf("extensions: invalid schedule produced: %w", err)
	}
	res.CostPerSlot, err = res.Schedule.Cost(ledger)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// oracleInstance builds a random Sec. VI instance at slot 1: n datacenters,
// each directed link present with probability density (so sparse overlays
// leave some files unable to reach their destinations in time), charging
// at percentile q over 10 slots, traffic committed in every slot of the
// period on half the links (paid headroom and a sunk cost), and nFiles
// files with deadlines 1-5 released at slot 1 or 2.
func oracleInstance(t testing.TB, seed int64, n int, density, q float64, nFiles int) (*netmodel.Ledger, []netmodel.File) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw, err := netmodel.NewNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	capacity := 20 + 80*rng.Float64()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				if err := nw.SetLink(netmodel.DC(i), netmodel.DC(j), 1+float64(rng.Intn(10)), capacity); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ledger, err := netmodel.NewLedger(nw, netmodel.Charging{Q: q, PeriodSlots: 10})
	if err != nil {
		t.Fatal(err)
	}
	var loadErr error
	nw.Links(func(l netmodel.Link, _, _ float64) {
		if rng.Float64() < 0.5 {
			return
		}
		for slot := 0; slot < 10 && loadErr == nil; slot++ {
			loadErr = ledger.Add(l.From, l.To, slot, 0.6*capacity*rng.Float64())
		}
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	files := make([]netmodel.File, nFiles)
	for k := range files {
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		files[k] = netmodel.File{
			ID:       10 + k,
			Src:      netmodel.DC(src),
			Dst:      netmodel.DC(dst),
			Size:     5 + 75*rng.Float64(),
			Release:  1 + rng.Intn(2),
			Deadline: 1 + rng.Intn(5),
		}
	}
	return ledger, files
}

// paperLoadSlot is the paper-load slot of ROADMAP.md at 8 datacenters: a
// complete overlay with prices U[1,10] and capacity 100, an empty
// MaxCharging(100) ledger, and nf files of U[10,100] GB with deadline T
// released at slot 0, drawn from seed 7.
func paperLoadSlot(t testing.TB, nf, deadline int) (*netmodel.Ledger, []netmodel.File) {
	t.Helper()
	const n = 8
	rng := rand.New(rand.NewSource(7))
	nw, err := netmodel.Complete(n, func(_, _ netmodel.DC) float64 { return 1 + 9*rng.Float64() }, 100)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(100))
	if err != nil {
		t.Fatal(err)
	}
	files := make([]netmodel.File, nf)
	for k := range files {
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		files[k] = netmodel.File{ID: k, Src: netmodel.DC(src), Dst: netmodel.DC(dst),
			Size: 10 + 90*rng.Float64(), Deadline: deadline}
	}
	return ledger, files
}

// checkAgainstOracle solves one instance with MaxBulk (nil budget) or
// MaxUnderBudget and with the arc-model oracle, and requires the same
// status, TotalDelivered within 1e-6 relative, a plan that verifies against
// the delivered volumes, and a charged cost within the budget. It returns
// the path master's result.
func checkAgainstOracle(t *testing.T, ledger *netmodel.Ledger, files []netmodel.File, at int, budget *float64) *Result {
	t.Helper()
	var got, want *Result
	var err error
	if budget == nil {
		got, err = MaxBulk(ledger, files, at)
		if err == nil {
			want, err = solveMaxVolume(ledger, files, at, ledger.PaidHeadroom, nil)
		}
	} else {
		got, err = MaxUnderBudget(ledger, files, at, *budget)
		if err == nil {
			want, err = solveMaxVolume(ledger, files, at, ledger.Residual, budget)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status {
		t.Fatalf("status %v, oracle %v", got.Status, want.Status)
	}
	if got.Status != lp.Optimal {
		return got
	}
	if d := math.Abs(got.TotalDelivered - want.TotalDelivered); d > 1e-6*(1+want.TotalDelivered) {
		t.Fatalf("delivered %.9g GB, oracle %.9g GB (diff %g)", got.TotalDelivered, want.TotalDelivered, d)
	}
	var served []netmodel.File
	for _, f := range files {
		if v := got.Delivered[f.ID]; v > 1e-5 {
			f.Size = v
			served = append(served, f)
		}
	}
	vc := schedule.VerifyConfig{Residual: ledger.Residual, Tol: 1e-4}
	if err := schedule.Verify(got.Schedule, ledger.Network(), served, vc); err != nil {
		t.Fatalf("plan does not deliver the reported volumes: %v", err)
	}
	if budget != nil && got.CostPerSlot > *budget+1e-6*(1+*budget) {
		t.Fatalf("cost per slot %v exceeds the budget %v", got.CostPerSlot, *budget)
	}
	return got
}

// budgetFor maps frac in [0, 1] to a budget: below the sunk cost for frac
// under 0.1, then from the sunk cost up to one that no batch of files can
// exhaust (frac 1). The sunk
// cost is what delivering nothing costs in the LP: every link charged at
// least its charged volume and the committed volume of each slot from 1 to
// 7 (above the charged volume only under q < 100).
func budgetFor(ledger *netmodel.Ledger, files []netmodel.File, frac float64) float64 {
	var sunk float64
	ledger.Network().Links(func(l netmodel.Link, price, _ float64) {
		x := ledger.ChargedVolume(l.From, l.To)
		for slot := 1; slot < 8; slot++ {
			x = max(x, ledger.VolumeAt(l.From, l.To, slot))
		}
		sunk += price * x
	})
	var demand float64
	for _, f := range files {
		demand += 10 * f.Size // price ≤ 10, so this pays for every file in one slot
	}
	if frac < 0.1 {
		return (0.9 + frac) * sunk
	}
	return sunk + (frac-0.1)*(frac-0.1)*demand
}

// FuzzMaxVolumeObjective holds MaxBulk and MaxUnderBudget on the path
// master to the arc-model oracle on random instances: 3-8 datacenters,
// overlays from 30 % of the links to complete, 100th- and 80th-percentile
// charging, 1-7 files with deadlines 1-5, and budgets from below the sunk
// cost to slack.
func FuzzMaxVolumeObjective(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(7), uint8(3), false, uint8(128))
	f.Add(int64(2), uint8(5), uint8(1), uint8(6), true, uint8(40))
	f.Add(int64(3), uint8(0), uint8(4), uint8(0), false, uint8(0))
	f.Add(int64(4), uint8(4), uint8(0), uint8(4), true, uint8(255))
	f.Add(int64(5), uint8(3), uint8(5), uint8(5), false, uint8(70))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densityRaw, filesRaw uint8, q80 bool, budgetRaw uint8) {
		q := 100.0
		if q80 {
			q = 80
		}
		density := 0.3 + 0.7*float64(densityRaw%8)/7
		ledger, files := oracleInstance(t, seed, 3+int(nRaw)%6, density, q, 1+int(filesRaw)%7)
		checkAgainstOracle(t, ledger, files, 1, nil)
		budget := budgetFor(ledger, files, float64(budgetRaw)/255)
		checkAgainstOracle(t, ledger, files, 1, &budget)
	})
}

// TestMaxVolumeMatchesOracle is the seeded table of the oracle check. Each
// row names what MaxUnderBudget's answer must be (an infeasible budget, a
// partial delivery, or every file in full), so the table keeps covering
// those cases. It includes the 8-DC paper-load slot with 10 files and T=5
// at the budgets 100, 300 and 1000, where the oracle takes seconds.
func TestMaxVolumeMatchesOracle(t *testing.T) {
	const infeasible, partial, full = "infeasible", "partial", "full"
	check := func(t *testing.T, ledger *netmodel.Ledger, files []netmodel.File, at int, budget float64, want string) {
		res := checkAgainstOracle(t, ledger, files, at, &budget)
		var size float64
		for _, f := range files {
			size += f.Size
		}
		got := infeasible
		switch {
		case res.Status != lp.Optimal:
		case res.TotalDelivered < size-1e-5:
			got = partial
		default:
			got = full
		}
		if got != want {
			t.Fatalf("budget %v: %s (status %v, %v of %v GB delivered), the row expects %s",
				budget, got, res.Status, res.TotalDelivered, size, want)
		}
	}
	for _, tc := range []struct {
		name    string
		seed    int64
		n       int
		density float64
		q       float64
		files   int
		frac    float64
		want    string
	}{
		{"complete/q100/binding", 11, 5, 1, 100, 5, 0.15, partial},
		{"complete/q80/binding", 18, 6, 1, 80, 7, 0.2, partial},
		{"complete/q80/slack", 12, 6, 1, 80, 7, 1, full},
		{"sparse/q100/slack", 13, 8, 0.35, 100, 7, 1, partial}, // some files cannot arrive in time
		{"sparse/q80/binding", 14, 7, 0.35, 80, 6, 0.15, partial},
		{"complete/q100/below-sunk", 15, 4, 1, 100, 3, 0, infeasible},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ledger, files := oracleInstance(t, tc.seed, tc.n, tc.density, tc.q, tc.files)
			checkAgainstOracle(t, ledger, files, 1, nil)
			check(t, ledger, files, 1, budgetFor(ledger, files, tc.frac), tc.want)
		})
	}
	for _, tc := range []struct {
		budget float64
		want   string
	}{{100, partial}, {300, partial}, {1000, full}} {
		t.Run(fmt.Sprintf("paper-load/B=%g", tc.budget), func(t *testing.T) {
			if testing.Short() {
				t.Skip("the arc-model oracle takes seconds on the paper-load slot")
			}
			ledger, files := paperLoadSlot(t, 10, 5)
			check(t, ledger, files, 0, tc.budget, tc.want)
		})
	}
}

// TestMaxUnderBudgetIsCheapestAtItsVolume: among the plans that deliver
// the maximum volume within the budget, MaxUnderBudget returns the
// cheapest, which is Postcard's plan for the served files at their
// delivered volumes. On the 8-DC paper-load slot (10 files, T=5) at
// B = 1000 every file arrives, and at B = 100 the budget binds.
func TestMaxUnderBudgetIsCheapestAtItsVolume(t *testing.T) {
	for _, budget := range []float64{100, 1000} {
		t.Run(fmt.Sprintf("B=%g", budget), func(t *testing.T) {
			ledger, files := paperLoadSlot(t, 10, 5)
			got := checkAgainstOracle(t, ledger, files, 0, &budget)
			if got.Status != lp.Optimal {
				t.Fatalf("status %v", got.Status)
			}
			var served []netmodel.File
			for _, f := range files {
				if v := got.Delivered[f.ID]; v > 1e-5 {
					f.Size = v
					served = append(served, f)
				}
			}
			want, err := core.Solve(ledger, served, 0, &core.Config{Pricing: core.PricingPath})
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(got.CostPerSlot - want.CostPerSlot); d > 1e-6*want.CostPerSlot {
				t.Fatalf("cost per slot %.9g for %.9g GB; Postcard delivers them for %.9g", got.CostPerSlot, got.TotalDelivered, want.CostPerSlot)
			}
		})
	}
}
