package sim

import (
	"math"
	"testing"
	"time"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/stats"
	"github.com/interdc/postcard/internal/workload"
)

// TestPathMatchesArcObjectiveCIScale is the online correctness gate for
// Dantzig–Wolfe path pricing, mirroring the sparse-construction gate in
// colgen_test.go: at every slot of CI-scale online runs, the path master
// must report the same LP status and optimal objective as the arc-based
// default of the identical ledger state, up to the Epsilon tie-breaking
// term. The two formulations may commit different vertices of the same
// optimal face, so the comparison happens on a shared ledger before each
// commit, with the path plan applied. Fig 4 (ample capacity) runs all
// CI-scale runs; the contended Fig 6 setting runs one and is skipped in
// -short mode.
func TestPathMatchesArcObjectiveCIScale(t *testing.T) {
	pathCfg := &core.Config{Pricing: core.PricingPath}
	for _, figure := range []int{4, 6} {
		setting, err := netmodel.SettingByFigure(figure)
		if err != nil {
			t.Fatal(err)
		}
		scale := CIScale()
		if figure == 6 {
			if testing.Short() {
				continue
			}
			scale.Runs = 1
		}
		cfg := FigureConfig{Setting: setting, Scale: scale}
		for run := 0; run < cfg.Scale.Runs; run++ {
			trace, err := recordTrace(&cfg, run)
			if err != nil {
				t.Fatal(err)
			}
			seed := cfg.Scale.Seed + int64(run)*7919
			nw, err := netmodel.Complete(cfg.Scale.DCs, workload.UniformPrices(seed), setting.Capacity)
			if err != nil {
				t.Fatal(err)
			}
			ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(cfg.Scale.Slots))
			if err != nil {
				t.Fatal(err)
			}
			gen := trace.Replay()
			columns, fallbacks := 0, 0
			for slot := 0; slot < cfg.Scale.Slots; slot++ {
				remaining := gen.FilesAt(slot)
				for {
					arc, err := core.Solve(ledger, remaining, slot, nil)
					if err != nil {
						t.Fatalf("fig %d run %d slot %d: arc model: %v", figure, run, slot, err)
					}
					path, err := core.Solve(ledger, remaining, slot, pathCfg)
					if err != nil {
						t.Fatalf("fig %d run %d slot %d: path model: %v", figure, run, slot, err)
					}
					if path.Status != arc.Status {
						t.Fatalf("fig %d run %d slot %d: path status %v, arc %v",
							figure, run, slot, path.Status, arc.Status)
					}
					columns += path.ColGenColumns
					fallbacks += path.PathFallbacks
					if arc.Status == lp.Optimal {
						tol := 1e-3 * (1 + math.Abs(arc.CostPerSlot))
						if math.Abs(path.CostPerSlot-arc.CostPerSlot) > tol {
							t.Errorf("fig %d run %d slot %d: path objective %v, arc %v",
								figure, run, slot, path.CostPerSlot, arc.CostPerSlot)
						}
						if err := path.Schedule.Apply(ledger); err != nil {
							t.Fatalf("fig %d run %d slot %d: committing path plan: %v", figure, run, slot, err)
						}
						break
					}
					// Infeasible slot: shed exactly as the engine does and
					// compare the retry too.
					if len(remaining) == 0 {
						t.Fatalf("fig %d run %d slot %d: infeasible with no files", figure, run, slot)
					}
					shed := shedOrder(remaining)[0]
					next := remaining[:0:0]
					for _, f := range remaining {
						if f.ID != shed.ID {
							next = append(next, f)
						}
					}
					remaining = next
				}
			}
			if columns == 0 {
				t.Errorf("fig %d run %d: path pricing never materialized a column", figure, run)
			}
			t.Logf("fig %d run %d: %d path columns, %d arc fallbacks", figure, run, columns, fallbacks)
		}
	}
}

// TestDC64PathPricingSmoke is the scaling smoke behind the dc64-smoke CI
// job: one Figure 4-style run at 64 datacenters (4032 links per slot on the
// complete evaluation topology) driven end to end through the incremental
// solver in path-pricing mode. The assertion is that the run completes,
// every slot solved through the path master, and pricing actually
// restricted the model (columns generated ≪ the delayed arc universe).
func TestDC64PathPricingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("64-DC smoke skipped in -short mode")
	}
	setting, err := netmodel.SettingByFigure(4)
	if err != nil {
		t.Fatal(err)
	}
	sched := &Postcard{
		Label:     "postcard-path",
		WarmStart: true,
		Config:    &core.Config{Pricing: core.PricingPath},
	}
	res, err := RunFigure(FigureConfig{
		Setting:    setting,
		Scale:      DCScale(64),
		Schedulers: []Scheduler{sched},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Schedulers[0].Solver
	if st.PathSolves == 0 {
		t.Fatal("no path solves recorded at 64 DCs")
	}
	if st.ColGenColumns == 0 {
		t.Error("path pricing generated no columns at 64 DCs")
	}
	if st.ColGenUniverse > 0 && st.ColGenColumns >= st.ColGenUniverse {
		t.Errorf("path pricing materialized %d columns against a %d-edge universe; generation restricted nothing",
			st.ColGenColumns, st.ColGenUniverse)
	}
	t.Logf("64 DCs: %d solves (%d fallbacks), %d columns / %d universe, %d lazy rows, %v",
		st.PathSolves, st.PathFallbacks, st.ColGenColumns, st.ColGenUniverse,
		st.ColGenRows, res.Schedulers[0].Elapsed)
}

// goldenDC64Result hand-builds the FigureResult of the 64-DC scaling run
// (deterministic counters, pinned Elapsed) so the rendered solver table —
// including the path-pricing section that only appears when PathSolves > 0
// — is stable byte-for-byte.
func goldenDC64Result() *FigureResult {
	return &FigureResult{
		Setting: netmodel.EvalSetting{
			Name: "ample capacity, urgent", Figure: 4, Capacity: 100, MaxT: 3,
		},
		Scale: DCScale(64),
		Schedulers: []SchedulerSummary{
			{
				Name: "postcard-path",
				Final: stats.Summary{
					N: 1, Mean: 5321.5, StdDev: 0, CI95Half: 0,
					Min: 5321.5, Max: 5321.5,
				},
				MeanSeries: []float64{1210.25, 2645.5, 4010.75, 5321.5},
				Elapsed:    2718 * time.Millisecond,
				Solver: core.SolveStats{
					Solves: 4, WarmSolves: 3, GraphReuses: 3,
					Counters: core.Counters{
						Work: lp.Work{
							Iterations: 1840, Phase1Iter: 0,
							SparseSolves: 410, DenseSolves: 95,
							SolveNNZ: 5100, SolveDim: 20400,
							DevexResets: 6, DualRecomputes: 58,
							ColGenRounds: 19, ColGenColumns: 87, ColGenRows: 203,
							ColGenUniverse: 290304,
						},
						VarUniverse: 290304, PrunedVars: 96768,
						PathFallbacks: 0, PathRecycled: 12,
					},
					PathSolves: 4,
				},
			},
		},
	}
}

// TestDC64SolverTableGolden pins the rendered solver table of the 64-DC
// path-pricing figure byte-for-byte: the LP-work row plus the appended
// path-pricing section (solves, fallbacks, lazy rows, recycled columns).
// Arc-only results omit the section entirely, which figure6-solver.golden
// already pins.
func TestDC64SolverTableGolden(t *testing.T) {
	checkGolden(t, "dc64-solver.golden", goldenDC64Result().SolverTable())
}
