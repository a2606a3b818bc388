package flowbased

// The static-flow LP that solved Solve and SolveTwoPhase before they moved
// onto core's path master (buildFlowLP, its two phases and the helpers
// they use, kept verbatim), and the tests that hold the path master to it.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/workload"
)

// active reports whether file f occupies the network during slot n.
func active(f netmodel.File, n int) bool {
	return n >= f.Release && n < f.Release+f.Deadline
}

// flowPhase selects the static-flow LP that buildFlowLP writes. With lam
// set it is the concurrent phase: the λ column carries every file's supply
// (coefficient −r at the source and +r at the destination, right-hand
// side 0), rate columns cost −ε, and the capacity rows allow the paid
// headroom. With lam < 0 it is the cost phase: the supply is the
// right-hand side (1−lambda)·r, rate columns cost +ε, the capacity rows
// allow the residual less the fixed flow, and a charged-volume column X
// per link, priced at the link, enters one charge row per (link, slot):
// rates + fixed − X ≤ −VolumeAt.
type flowPhase struct {
	lam    lp.VarID
	lambda float64
	// fixed[k][i] is file k's flow on link i that the concurrent phase
	// already routed (nil for none).
	fixed [][]float64
}

// flowLP is a static-flow LP over files: file k's rate on link i is column
// first + k·L + i (L = len(links)), and link i's charged volume, when the
// LP has one, is column x + i.
type flowLP struct {
	links    []netmodel.Link
	first, x lp.VarID
}

func (p *flowLP) rate(k, i int) lp.VarID { return p.first + lp.VarID(k*len(p.links)+i) }

// buildFlowLP appends to m the rate columns, the cost phase's
// charged-volume columns, one conservation row per (file, node), and for
// every link and slot in [t, end) that some file is active in a capacity
// row and the cost phase's charge row.
func buildFlowLP(m *lp.Model, ledger *netmodel.Ledger, files []netmodel.File, links []netmodel.Link,
	t, end int, ph flowPhase) (*flowLP, error) {
	nw := ledger.Network()
	costLP := ph.lam < 0
	rateObj := -netmodel.Epsilon
	if costLP {
		rateObj = netmodel.Epsilon
	}
	p := &flowLP{links: links, first: lp.VarID(m.NumVariables()), x: -1}
	for _, f := range files {
		for range links {
			m.AddVariable(0, f.DesiredRate()*float64(nw.NumDCs()), rateObj, "")
		}
	}
	if costLP {
		p.x = lp.VarID(m.NumVariables())
		for _, l := range links {
			m.AddVariable(ledger.ChargedVolume(l.From, l.To), math.Inf(1), nw.Price(l.From, l.To), "")
		}
	}
	// out[d] and in[d] list the links leaving and entering d, by ascending
	// far end.
	out := make([][]int, nw.NumDCs())
	in := make([][]int, nw.NumDCs())
	for i, l := range links {
		out[l.From] = append(out[l.From], i)
		in[l.To] = append(in[l.To], i)
	}
	var idx []lp.VarID
	var val []float64
	for k, f := range files {
		r := f.DesiredRate()
		for d := range out {
			idx, val = idx[:0], val[:0]
			for _, i := range out[d] {
				idx, val = append(idx, p.rate(k, i)), append(val, 1)
			}
			for _, i := range in[d] {
				idx, val = append(idx, p.rate(k, i)), append(val, -1)
			}
			supply := 0.0
			switch netmodel.DC(d) {
			case f.Src:
				supply = r
			case f.Dst:
				supply = -r
			}
			rhs := 0.0
			switch {
			case costLP:
				rhs = (1 - ph.lambda) * supply
			case supply != 0:
				idx, val = append(idx, ph.lam), append(val, -supply)
			}
			if len(idx) == 0 {
				if rhs != 0 {
					return nil, fmt.Errorf("flowbased: file %d endpoint D%d has no links", f.ID, d)
				}
				continue
			}
			if _, err := m.AddConstraint(lp.EQ, rhs, idx, val); err != nil {
				return nil, err
			}
		}
	}
	for i, l := range links {
		for s := t; s < end; s++ {
			idx, val = idx[:0], val[:0]
			used := 0.0
			for k, f := range files {
				if active(f, s) {
					idx, val = append(idx, p.rate(k, i)), append(val, 1)
					if ph.fixed != nil {
						used += ph.fixed[k][i]
					}
				}
			}
			if len(idx) == 0 {
				continue
			}
			var capacity float64
			if costLP {
				if capacity = ledger.Residual(l.From, l.To, s) - used; capacity < 0 {
					capacity = 0
				}
			} else {
				capacity = ledger.PaidHeadroom(l.From, l.To, s)
			}
			if _, err := m.AddConstraint(lp.LE, capacity, idx, val); err != nil {
				return nil, err
			}
			if !costLP {
				continue
			}
			idx, val = append(idx, p.x+lp.VarID(i)), append(val, -1)
			if _, err := m.AddConstraint(lp.LE, -(ledger.VolumeAt(l.From, l.To, s) + used), idx, val); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// rates reads the solved rate columns as rates[k][i], file k on link i,
// with values at or below 1e-9 read as 0.
func (p *flowLP) rates(sol *lp.Solution, nfiles int) [][]float64 {
	L := len(p.links)
	all := make([]float64, nfiles*L)
	rates := make([][]float64, nfiles)
	for k := range rates {
		rates[k] = all[k*L : (k+1)*L]
		for i := range rates[k] {
			if v := sol.Value(p.rate(k, i)); v > 1e-9 {
				rates[k][i] = v
			}
		}
	}
	return rates
}

// costPhase routes the remaining (1−λ) of every file's desired rate at the
// least charged cost, on top of the fixed flows (nil for none), and returns
// the rates it adds and the cost per slot.
func costPhase(ledger *netmodel.Ledger, files []netmodel.File, links []netmodel.Link, t, end int,
	lambda float64, fixed [][]float64) ([][]float64, float64, lp.Status, error) {
	m := lp.NewModel()
	p, err := buildFlowLP(m, ledger, files, links, t, end, flowPhase{lam: -1, lambda: lambda, fixed: fixed})
	if err != nil {
		return nil, 0, 0, err
	}
	sol, err := m.Solve(nil)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("flowbased: cost-phase LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, 0, sol.Status, nil
	}
	cost := 0.0
	for i, l := range links {
		cost += ledger.Network().Price(l.From, l.To) * sol.Value(p.x+lp.VarID(i))
	}
	return p.rates(sol, len(files)), cost, lp.Optimal, nil
}

// concurrentPhase maximizes the common routable fraction λ within the paid
// headroom of every link and slot, and returns λ with the rates routing it.
func concurrentPhase(ledger *netmodel.Ledger, files []netmodel.File, links []netmodel.Link, t, end int) (float64, [][]float64, error) {
	m := lp.NewModel()
	m.SetMaximize()
	lam := m.AddVariable(0, 1, 1, "")
	p, err := buildFlowLP(m, ledger, files, links, t, end, flowPhase{lam: lam})
	if err != nil {
		return 0, nil, err
	}
	sol, err := m.Solve(nil)
	if err != nil {
		return 0, nil, fmt.Errorf("flowbased: concurrent-phase LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		// λ = 0 with zero flows is always feasible, so anything else is a
		// solver-level problem worth surfacing.
		return 0, nil, fmt.Errorf("flowbased: concurrent-phase LP status %v", sol.Status)
	}
	lambda := sol.Value(lam)
	if lambda < 0 {
		lambda = 0
	}
	if lambda > 1 {
		lambda = 1
	}
	return lambda, p.rates(sol, len(files)), nil
}

// checkFlowAgainstOracle solves one batch with Solve and SolveTwoPhase and
// holds each to the oracle's LPs: the same status, LP objectives within
// 1e-6 relative (the charged cost per slot, and the concurrent phase's λ),
// and rates that pass ValidateRates. A concurrent phase can have several
// optimal rate plans, and the cost phase depends on which one it routes on
// top of, so SolveTwoPhase's cost phase is checked against the oracle's
// cost phase on the same concurrent rates. When those carry every rate
// (λ = 1) there is no cost phase left to solve, and the cost is the
// committed ledger's; the oracle's empty cost phase reports the same under
// 100th-percentile charging, and under a lower one an upper bound that
// also charges committed volume above the percentile. The oracle fails outright on a
// file whose endpoint has no links at all; the path master must call that
// batch Infeasible. It returns the two path master results.
func checkFlowAgainstOracle(t *testing.T, ledger *netmodel.Ledger, files []netmodel.File, at int) (single, two *Result) {
	t.Helper()
	horizon, err := netmodel.CheckBatch(ledger.Network(), files, at)
	if err != nil {
		t.Fatal(err)
	}
	links := linkList(ledger.Network())
	end := at + horizon
	check := func(name string, got *Result, err error, oracle *netmodel.Ledger, lambda float64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s at slot %d: %v", name, at, err)
		}
		_, cost, status, err := costPhase(oracle, files, links, at, end, lambda, nil)
		if err != nil {
			if !strings.Contains(err.Error(), "has no links") {
				t.Fatalf("%s oracle: %v", name, err)
			}
			status = lp.Infeasible
		}
		if got.Status != status {
			t.Fatalf("%s at slot %d: status %v, oracle %v", name, at, got.Status, status)
		}
		if status != lp.Optimal {
			return
		}
		if lambda == 1 {
			cost = oracle.CostPerSlot()
		}
		if d := math.Abs(got.CostPerSlot - cost); d > 1e-6*(1+math.Abs(cost)) {
			t.Fatalf("%s at slot %d: cost per slot %.9g, oracle %.9g (diff %g)", name, at, got.CostPerSlot, cost, d)
		}
		if err := ValidateRates(ledger, files, got.Rates); err != nil {
			t.Fatalf("%s at slot %d: %v", name, at, err)
		}
	}
	single, err = Solve(ledger, files, at)
	check("Solve", single, err, ledger, 0)

	p1, committed, err := concurrentFlows(ledger, files, at)
	if err != nil {
		t.Fatalf("concurrent phase: %v", err)
	}
	lambda, _, err := concurrentPhase(ledger, files, links, at, end)
	if err != nil && !strings.Contains(err.Error(), "has no links") {
		t.Fatalf("concurrent phase oracle: %v", err)
	}
	if err == nil && math.Abs(p1.Lambda-lambda) > 1e-6 {
		t.Fatalf("concurrent phase at slot %d: λ = %.9g, oracle %.9g", at, p1.Lambda, lambda)
	}
	two, err = SolveTwoPhase(ledger, files, at)
	check("SolveTwoPhase", two, err, committed, p1.Lambda)
	return single, two
}

// shedOrder is the engine's shedding order (internal/sim): descending
// desired rate, then ascending ID.
func shedOrder(files []netmodel.File) []netmodel.File {
	out := append([]netmodel.File(nil), files...)
	sort.Slice(out, func(i, j int) bool {
		if ri, rj := out[i].DesiredRate(), out[j].DesiredRate(); ri != rj {
			return ri > rj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TestFlowMatchesOracleCIScale replays the CI-scale runs of Figs. 4-7
// (8 DCs, 16 slots, 3 runs, 1-5 files of 10-100 GB a slot, the workload
// and prices internal/sim draws for them) slot by slot, one ledger per
// scheduler, holding Solve and SolveTwoPhase to the oracle on every slot
// and committing their own plans. An infeasible slot sheds one file as the
// engine does, and the retry is checked too.
func TestFlowMatchesOracleCIScale(t *testing.T) {
	const dcs, slots, runs, baseSeed = 8, 16, 3, 2012
	for _, setting := range netmodel.EvalSettings() {
		for run := 0; run < runs; run++ {
			t.Run(fmt.Sprintf("fig%d/run%d", setting.Figure, run), func(t *testing.T) {
				replayFlowRun(t, setting, int64(baseSeed+run*7919), dcs, slots)
			})
		}
	}
}

// replayFlowRun is one run of TestFlowMatchesOracleCIScale.
func replayFlowRun(t *testing.T, setting netmodel.EvalSetting, seed int64, dcs, slots int) {
	gen, err := workload.NewUniform(workload.UniformConfig{
		NumDCs: dcs, MinFiles: 1, MaxFiles: 5, MinSizeGB: 10, MaxSizeGB: 100,
		MaxDeadline: setting.MaxT, FixedDeadline: true, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := netmodel.Complete(dcs, workload.UniformPrices(seed), setting.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	var ledgers [2]*netmodel.Ledger
	for i := range ledgers {
		if ledgers[i], err = netmodel.NewLedger(nw, netmodel.MaxCharging(slots)); err != nil {
			t.Fatal(err)
		}
	}
	for slot := 0; slot < slots; slot++ {
		arrived := gen.FilesAt(slot)
		for i, ledger := range ledgers {
			files := arrived
			for {
				single, two := checkFlowAgainstOracle(t, ledger, files, slot)
				res := [2]*Result{single, two}[i]
				if res.Status == lp.Optimal {
					if err := res.Schedule.Apply(ledger); err != nil {
						t.Fatalf("slot %d: %v", slot, err)
					}
					break
				}
				files = shedOrder(files)[1:]
			}
		}
	}
}

// flowInstance builds a random flow-baseline batch at slot 1: n
// datacenters, each directed link present with probability density,
// charging at percentile q over 10 slots, traffic committed in every slot
// of the period on half the links (paid headroom, and capacity the new
// rates compete for), and nFiles files with deadlines 1-5 released at slot
// 1 or 2 whose sizes are scaled by load, so a heavy load asks for rates
// the links cannot carry.
func flowInstance(t testing.TB, seed int64, n int, density, q float64, nFiles int, load float64) (*netmodel.Ledger, []netmodel.File) {
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
			Size:     load * (5 + 75*rng.Float64()),
			Release:  1 + rng.Intn(2),
			Deadline: 1 + rng.Intn(5),
		}
	}
	return ledger, files
}

// FuzzFlowObjective holds Solve and SolveTwoPhase on the path master to the
// oracle on random batches: 3-8 datacenters, overlays from 30 % of the
// links to complete, 100th- and 80th-percentile charging, 1-7 files with
// deadlines 1-5, and loads from light to rates no overlay can carry.
func FuzzFlowObjective(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(7), uint8(3), false, uint8(20))
	f.Add(int64(2), uint8(5), uint8(1), uint8(6), true, uint8(60))
	f.Add(int64(3), uint8(0), uint8(4), uint8(0), false, uint8(0))
	f.Add(int64(4), uint8(4), uint8(0), uint8(4), true, uint8(255))
	f.Add(int64(5), uint8(3), uint8(5), uint8(5), false, uint8(140))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densityRaw, filesRaw uint8, q80 bool, loadRaw uint8) {
		q := 100.0
		if q80 {
			q = 80
		}
		density := 0.3 + 0.7*float64(densityRaw%8)/7
		load := 0.1 + 8*float64(loadRaw)/255
		ledger, files := flowInstance(t, seed, 3+int(nRaw)%6, density, q, 1+int(filesRaw)%7, load)
		checkFlowAgainstOracle(t, ledger, files, 1)
	})
}

// TestFlowMatchesOracle is the seeded table of the oracle check. Each row
// names the outcome both schedulers must reach, so the table keeps
// covering feasible and infeasible batches on complete and sparse
// overlays under both percentiles.
func TestFlowMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     int64
		n        int
		density  float64
		q        float64
		files    int
		load     float64
		feasible bool
	}{
		{"complete/q100", 21, 6, 1, 100, 6, 1, true},
		{"complete/q80", 22, 7, 1, 80, 7, 1, true},
		{"sparse/q100", 23, 8, 0.45, 100, 5, 0.5, true},
		{"sparse/q80", 24, 6, 0.5, 80, 4, 0.5, true},
		{"complete/q100/over-capacity", 25, 4, 1, 100, 5, 8, false},
		{"sparse/q80/over-capacity", 26, 5, 0.4, 80, 6, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ledger, files := flowInstance(t, tc.seed, tc.n, tc.density, tc.q, tc.files, tc.load)
			single, two := checkFlowAgainstOracle(t, ledger, files, 1)
			for _, res := range []*Result{single, two} {
				if got := res.Status == lp.Optimal; got != tc.feasible {
					t.Fatalf("status %v, the row expects feasible=%v", res.Status, tc.feasible)
				}
			}
		})
	}
}
