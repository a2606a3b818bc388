package sim

import (
	"math"
	"strings"
	"testing"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/telemetry"
	"github.com/interdc/postcard/internal/workload"
)

// warmColdFigure runs one CI-scale figure with the cold and warm Postcard
// schedulers side by side on identical traces.
func warmColdFigure(t *testing.T, figure, workers int) *FigureResult {
	t.Helper()
	setting, err := netmodel.SettingByFigure(figure)
	if err != nil {
		t.Fatal(err)
	}
	scale := CIScale()
	scale.Workers = workers
	res, err := RunFigure(FigureConfig{
		Setting:    setting,
		Scale:      scale,
		Schedulers: []Scheduler{&Postcard{}, &Postcard{WarmStart: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWarmMatchesColdObjectiveCIScale is the tentpole's correctness gate: at
// every slot of a CI-scale Fig 4 (ample capacity) and Fig 6 (limited
// capacity) online run, the warm-started incremental solver must report the
// same LP status and the same optimal objective as a cold solve of the
// identical ledger state, up to the Epsilon tie-breaking term. (The two may
// commit different vertices of the same optimal face, so trajectories — not
// objectives — are allowed to drift; the comparison therefore happens on a
// shared ledger before each commit, with the warm plan applied.)
func TestWarmMatchesColdObjectiveCIScale(t *testing.T) {
	for _, figure := range []int{4, 6} {
		setting, err := netmodel.SettingByFigure(figure)
		if err != nil {
			t.Fatal(err)
		}
		cfg := FigureConfig{Setting: setting, Scale: CIScale()}
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
			solver := core.NewSolver(nil)
			gen := trace.Replay()
			for slot := 0; slot < cfg.Scale.Slots; slot++ {
				remaining := gen.FilesAt(slot)
				for {
					cold, err := core.Solve(ledger, remaining, slot, nil)
					if err != nil {
						t.Fatalf("fig %d run %d slot %d: cold: %v", figure, run, slot, err)
					}
					warm, err := solver.Solve(ledger, remaining, slot)
					if err != nil {
						t.Fatalf("fig %d run %d slot %d: warm: %v", figure, run, slot, err)
					}
					if warm.Status != cold.Status {
						t.Fatalf("fig %d run %d slot %d: warm status %v, cold %v",
							figure, run, slot, warm.Status, cold.Status)
					}
					if cold.Status == lp.Optimal {
						tol := 1e-3 * (1 + math.Abs(cold.CostPerSlot))
						if math.Abs(warm.CostPerSlot-cold.CostPerSlot) > tol {
							t.Errorf("fig %d run %d slot %d: warm objective %v, cold %v",
								figure, run, slot, warm.CostPerSlot, cold.CostPerSlot)
						}
						if err := warm.Schedule.Apply(ledger); err != nil {
							t.Fatalf("fig %d run %d slot %d: committing warm plan: %v", figure, run, slot, err)
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
			st := solver.Stats()
			if st.Solves == 0 {
				t.Fatalf("fig %d run %d: warm solver reported no solves", figure, run)
			}
			if st.WarmSolves < st.Solves/2 {
				t.Errorf("fig %d run %d: only %d of %d solves warm-started", figure, run, st.WarmSolves, st.Solves)
			}
			if st.GraphReuses == 0 {
				t.Errorf("fig %d run %d: graph skeleton never reused", figure, run)
			}
		}
	}
}

// TestWarmParallelMatchesSequential extends the driver's determinism
// guarantee to the stateful warm scheduler: Workers 8 and Workers 1 must
// agree bit-for-bit on aggregates AND on the summed solver counters, because
// every cell clones a fresh solver cache and the per-run deltas are reduced
// in fixed order.
func TestWarmParallelMatchesSequential(t *testing.T) {
	seq := warmColdFigure(t, 6, 1)
	par := warmColdFigure(t, 6, 8)
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
		t.Error("SeriesCSV diverged between sequential and parallel warm runs")
	}
}

// TestRunStatsSolverDelta pins the engine's snapshot semantics: RunStats.
// Solver is the work of that run alone, so driving the same warm scheduler
// instance through two consecutive runs yields two comparable deltas whose
// sum equals the scheduler's cumulative counters — not two nested cumulative
// snapshots.
func TestRunStatsSolverDelta(t *testing.T) {
	sched := &Postcard{WarmStart: true}
	setting, err := netmodel.SettingByFigure(4)
	if err != nil {
		t.Fatal(err)
	}
	scale := CIScale()
	cfg := FigureConfig{Setting: setting, Scale: scale}
	var runs []*RunStats
	for run := 0; run < 2; run++ {
		trace, err := recordTrace(&cfg, run)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := runCell(&cfg, run, sched, trace)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, rs)
	}
	if runs[0].Solver.Solves == 0 || runs[1].Solver.Solves == 0 {
		t.Fatalf("runs reported no solver work: %+v, %+v", runs[0].Solver, runs[1].Solver)
	}
	sum := runs[0].Solver
	telemetry.Add(&sum, runs[1].Solver)
	if got := sched.SolverStats(); got != sum {
		t.Errorf("per-run deltas do not sum to the cumulative counters:\nsum        %+v\ncumulative %+v", sum, got)
	}
}

// TestSolverTableRendering checks the instrumentation surface: the table
// lists exactly the schedulers that performed instrumented solves (both
// Postcard adapters, cold and warm), and is empty — preserving the
// historical byte-stable output — when no scheduler reports solver work.
func TestSolverTableRendering(t *testing.T) {
	res := warmColdFigure(t, 6, 2)
	table := res.SolverTable()
	if table == "" {
		t.Fatal("SolverTable empty despite instrumented scheduler work")
	}
	if !strings.Contains(table, "postcard-warm") {
		t.Errorf("SolverTable missing warm scheduler:\n%s", table)
	}
	if !strings.Contains(table, "postcard ") {
		t.Errorf("SolverTable missing cold scheduler (it counts its solves too):\n%s", table)
	}
	for i, s := range res.Schedulers {
		if s.Solver.Solves == 0 {
			t.Errorf("scheduler %d (%s) reported no solves", i, s.Name)
		}
	}
	cold, warm := res.Schedulers[0].Solver, res.Schedulers[1].Solver
	if cold.WarmSolves != 0 || cold.GraphReuses != 0 {
		t.Errorf("cold adapter claims warm work: %+v", cold)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm starting did not reduce simplex iterations: warm %d, cold %d",
			warm.Iterations, cold.Iterations)
	}

	// A figure with only flow-based schedulers reports no solver work.
	setting, err := netmodel.SettingByFigure(6)
	if err != nil {
		t.Fatal(err)
	}
	scale := CIScale()
	scale.Runs = 1
	flows, err := RunFigure(FigureConfig{
		Setting:    setting,
		Scale:      scale,
		Schedulers: []Scheduler{&Flow{Variant: FlowLP}, &Flow{Variant: FlowDirect}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := flows.SolverTable(); got != "" {
		t.Errorf("SolverTable for uninstrumented schedulers = %q, want empty", got)
	}
}
