package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/stats"
)

// fastFigure runs one CI-scale figure with the LP reference — the warm
// path master, the formulation the republisher solves — and both fast-tier
// variants (pure fast path, and fast path with background republish) on
// identical traces.
func fastFigure(t *testing.T, figure, workers int) *FigureResult {
	t.Helper()
	setting, err := netmodel.SettingByFigure(figure)
	if err != nil {
		t.Fatal(err)
	}
	scale := CIScale()
	scale.Workers = workers
	res, err := RunFigure(FigureConfig{
		Setting: setting,
		Scale:   scale,
		Schedulers: []Scheduler{
			&Postcard{Label: "postcard-path", WarmStart: true, Config: &core.Config{Pricing: core.PricingPath}},
			&Fast{NoRepublish: true}, &Fast{},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFastParallelMatchesSequential extends the driver's determinism
// guarantee to the stateful admission scheduler, mirroring
// TestWarmParallelMatchesSequential: Workers 8 and Workers 1 must agree
// bit-for-bit on aggregates AND on the summed admission/solver counters,
// because every cell clones a fresh controller and the per-run deltas are
// reduced in fixed order.
func TestFastParallelMatchesSequential(t *testing.T) {
	seq := fastFigure(t, 6, 1)
	par := fastFigure(t, 6, 8)
	for i := range seq.Schedulers {
		s, p := seq.Schedulers[i], par.Schedulers[i]
		if s.Name != p.Name {
			t.Fatalf("scheduler %d: name %q vs %q", i, s.Name, p.Name)
		}
		if s.Final != p.Final {
			t.Errorf("%s: final summary diverged:\nsequential %+v\nparallel   %+v", s.Name, s.Final, p.Final)
		}
		for tt := range s.MeanSeries {
			if s.MeanSeries[tt] != p.MeanSeries[tt] {
				t.Errorf("%s: mean series diverged at slot %d: %v vs %v",
					s.Name, tt, s.MeanSeries[tt], p.MeanSeries[tt])
			}
		}
		if s.Solver != p.Solver {
			t.Errorf("%s: solver counters diverged:\nsequential %+v\nparallel   %+v", s.Name, s.Solver, p.Solver)
		}
	}
	if seq.SeriesCSV() != par.SeriesCSV() {
		t.Error("SeriesCSV diverged between sequential and parallel fast runs")
	}
	fast := seq.Schedulers[2].Solver
	if fast.Admits == 0 || fast.Republishes == 0 {
		t.Errorf("fast scheduler reported no admission work: %+v", fast)
	}
}

// TestFastMatchesWarmAmple checks the republish contract where it is
// exactly testable: on the ample-capacity regime (fig 4) nothing is shed,
// so the republished fast tier commits the same LP-optimal plans as the
// warm path-master scheduler (postcard-path) and their final costs
// coincide.
func TestFastMatchesWarmAmple(t *testing.T) {
	res := fastFigure(t, 4, 4)
	warm, fast := res.Schedulers[0], res.Schedulers[2]
	if fast.DroppedFiles != 0 {
		t.Fatalf("fast tier dropped %d files on ample capacity", fast.DroppedFiles)
	}
	tol := 1e-6 * (1 + math.Abs(warm.Final.Mean))
	if math.Abs(fast.Final.Mean-warm.Final.Mean) > tol {
		t.Errorf("republished fast tier cost %v, warm path LP %v", fast.Final.Mean, warm.Final.Mean)
	}
	if fast.Solver.RepublishDelta <= 0 {
		t.Errorf("republish saved nothing: %+v", fast.Solver)
	}
}

// gapTable renders the fast-tier optimality-gap table TestFastTierGapCIScale
// pins: per figure regime, the warm path LP reference cost, both fast-tier
// variants' costs, their relative gaps, and the files each dropped (drops
// make raw costs incomparable, so they are part of the pinned surface).
func gapTable(results map[int]*FigureResult, figures []int) string {
	var b strings.Builder
	b.WriteString("fast-tier optimality gap vs warm path LP (ci scale)\n")
	fmt.Fprintf(&b, "%-4s %-28s %12s %12s %8s %6s %12s %8s %6s\n",
		"fig", "regime", "lp-cost", "fast-only", "gap%", "drops", "fast+repub", "gap%", "drops")
	for _, fig := range figures {
		r := results[fig]
		lp, only, full := r.Schedulers[0], r.Schedulers[1], r.Schedulers[2]
		gapOnly := 100 * (only.Final.Mean - lp.Final.Mean) / lp.Final.Mean
		gapFull := 100 * (full.Final.Mean - lp.Final.Mean) / lp.Final.Mean
		fmt.Fprintf(&b, "%-4d %-28s %12.2f %12.2f %7.1f%% %6d %12.2f %7.1f%% %6d\n",
			fig, r.Setting.Name, lp.Final.Mean,
			only.Final.Mean, gapOnly, only.DroppedFiles,
			full.Final.Mean, gapFull, full.DroppedFiles)
	}
	return b.String()
}

// TestFastTierGapCIScale pins the fast-tier vs LP objective gap across the
// four figure regimes in a golden table, so a regression in the admission
// heuristic's quality fails CI exactly like the solver goldens do. Every
// quantity in the table is bit-deterministic (fixed seeds, fixed-order
// reduction; TestFastParallelMatchesSequential covers worker independence).
func TestFastTierGapCIScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full four-regime online run in -short mode")
	}
	figures := []int{4, 5, 6, 7}
	results := make(map[int]*FigureResult, len(figures))
	for _, fig := range figures {
		results[fig] = fastFigure(t, fig, 4)
	}
	checkGolden(t, "fast-gap-ci.golden", gapTable(results, figures))

	// Beyond the pinned bytes, assert the qualitative acceptance bounds:
	// with republish the fast tier is LP-matching wherever nothing is shed.
	for _, fig := range figures {
		r := results[fig]
		lp, full := r.Schedulers[0], r.Schedulers[2]
		if full.DroppedFiles == 0 {
			tol := 1e-6 * (1 + lp.Final.Mean)
			if math.Abs(full.Final.Mean-lp.Final.Mean) > tol {
				t.Errorf("fig %d: republished cost %v != LP %v with no drops",
					fig, full.Final.Mean, lp.Final.Mean)
			}
		}
	}
}

// goldenFastResult builds a deterministic FigureResult with admission
// counters, pinning the admission block SolverTable appends.
func goldenFastResult() *FigureResult {
	r := goldenResult()
	r.Schedulers = append(r.Schedulers, SchedulerSummary{
		Name: "postcard-fast",
		Final: stats.Summary{
			N: 3, Mean: 2501.5, StdDev: 120.25, CI95Half: 298.75,
			Min: 2350.125, Max: 2600,
		},
		MeanSeries:   []float64{185.25, 660.5, 1210.75, 1990.5, 2501.5},
		DroppedFiles: 3,
		Elapsed:      345 * time.Millisecond,
		Solver: core.SolveStats{
			Solves: 14, WarmSolves: 11, GraphReuses: 11,
			Counters: core.Counters{Work: lp.Work{Iterations: 3980, Phase1Iter: 290}},
			AdmissionStats: core.AdmissionStats{
				Admits: 151, Rejects: 3, Republishes: 14,
				FastCost: 6315.25, RepublishDelta: 8412.5,
			},
		},
	})
	return r
}

// TestAdmissionTableGolden pins the admission fast-tier block of
// SolverTable byte-for-byte. The LP-only schedulers report no admission
// decisions, so the golden also pins that they are skipped — and the
// existing figure6-solver.golden separately pins that pure LP runs render
// exactly as before the admission tier existed.
func TestAdmissionTableGolden(t *testing.T) {
	checkGolden(t, "figure6-admission.golden", goldenFastResult().SolverTable())
}
