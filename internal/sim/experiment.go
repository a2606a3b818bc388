package sim

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/stats"
	"github.com/interdc/postcard/internal/telemetry"
	"github.com/interdc/postcard/internal/workload"
)

// Scale sets the size of an evaluation experiment. The paper's scale is
// expensive (thousands of LP solves); CIScale keeps the same qualitative
// regimes at a size that runs in seconds.
type Scale struct {
	Name      string
	DCs       int
	Slots     int
	Runs      int
	FilesMin  int
	FilesMax  int
	SizeMinGB float64
	SizeMaxGB float64
	Seed      int64
	// Workers bounds the number of (run, scheduler) simulation cells
	// RunFigure executes concurrently. 0 or 1 means sequential. The
	// aggregated FigureResult is identical for every Workers value (see
	// RunFigure); only wall-clock time changes.
	Workers int
}

// PaperScale is the exact configuration of Sec. VII: 20 datacenters, 100
// slots, 10 runs, 1-20 files per slot of 10-100 GB.
func PaperScale() Scale {
	return Scale{
		Name:      "paper",
		DCs:       netmodel.EvalDCs,
		Slots:     netmodel.EvalSlots,
		Runs:      netmodel.EvalRuns,
		FilesMin:  1,
		FilesMax:  20,
		SizeMinGB: 10,
		SizeMaxGB: 100,
		Seed:      2012,
	}
}

// CIScale is a reduced configuration preserving the paper's regimes
// (ample versus limited capacity relative to per-file rates, urgent versus
// delay-tolerant deadlines) while keeping the LPs small. The per-slot file
// count is kept high relative to the link count so that cheap links see
// the contention that drives the paper's limited-capacity results.
func CIScale() Scale {
	return Scale{
		Name:      "ci",
		DCs:       8,
		Slots:     16,
		Runs:      3,
		FilesMin:  1,
		FilesMax:  5,
		SizeMinGB: 10,
		SizeMaxGB: 100,
		Seed:      2012,
	}
}

// DCScale is the solver-scaling configuration behind the PR 9 experiments:
// a Figure 4-style run (ample capacity, urgent deadlines) at an arbitrary
// datacenter count, sized so that the LP dimension — which grows with the
// link count, i.e. quadratically in DCs on the complete evaluation
// topology — is the only thing that changes between points. Slots and runs
// are kept small because one 128-DC slot already prices tens of thousands
// of candidate edges per file; the per-slot workload is fixed (not scaled
// with DCs) so solver time isolates model size, not demand volume.
func DCScale(dcs int) Scale {
	return Scale{
		Name:      fmt.Sprintf("dc%d", dcs),
		DCs:       dcs,
		Slots:     4,
		Runs:      1,
		FilesMin:  4,
		FilesMax:  8,
		SizeMinGB: 10,
		SizeMaxGB: 100,
		Seed:      2012,
	}
}

// Validate checks the scale.
func (s Scale) Validate() error {
	if s.DCs < 2 || s.Slots < 1 || s.Runs < 1 {
		return fmt.Errorf("sim: invalid scale %+v", s)
	}
	if s.FilesMin < 0 || s.FilesMax < s.FilesMin || s.SizeMinGB <= 0 || s.SizeMaxGB < s.SizeMinGB {
		return fmt.Errorf("sim: invalid workload ranges in scale %+v", s)
	}
	if s.Workers < 0 {
		return fmt.Errorf("sim: negative worker count %d in scale %+v", s.Workers, s)
	}
	return nil
}

// FigureConfig describes one evaluation figure to regenerate.
type FigureConfig struct {
	Setting    netmodel.EvalSetting
	Scale      Scale
	Schedulers []Scheduler
	// UniformDeadlines draws each file's deadline uniformly from
	// [1, Setting.MaxT] instead of fixing it at Setting.MaxT. The default
	// (fixed) follows the paper's "more urgent files (max T_k = 3)"
	// phrasing; note that under uniform draws, a deadline-1 file larger
	// than one link's per-slot capacity is undeliverable in the
	// time-slotted model (one slot = one hop) and will be shed.
	UniformDeadlines bool
	// Progress, when non-nil, receives human-readable progress lines.
	// Invocations are serialized (never concurrent), but with
	// Scale.Workers > 1 they arrive from worker goroutines in completion
	// order rather than (run, scheduler) order.
	Progress func(format string, args ...any)
}

// SchedulerSummary aggregates one scheduler's results across runs.
type SchedulerSummary struct {
	Name          string
	Final         stats.Summary // final cost per slot across runs (the figure's bar)
	MeanSeries    []float64     // cost per slot over time, averaged across runs
	DroppedFiles  int
	DroppedVolume float64
	Elapsed       time.Duration
	// Solver sums the per-run LP work deltas for schedulers that report
	// them (see SolverStatsReporter); the zero value otherwise.
	Solver core.SolveStats
}

// FigureResult is the regenerated data behind one evaluation figure.
type FigureResult struct {
	Setting    netmodel.EvalSetting
	Scale      Scale
	Schedulers []SchedulerSummary
}

// DefaultSchedulers returns the two schedulers the paper's figures compare.
func DefaultSchedulers() []Scheduler {
	return []Scheduler{&Postcard{}, &Flow{Variant: FlowLP}}
}

// effectiveWorkers resolves the worker count for an experiment with the
// given number of (run, scheduler) cells: Scale.Workers bounded below by 1
// and above by the cell count, and forced to 1 when any scheduler cannot
// be cloned (parallel cells must not share scheduler state).
func (cfg *FigureConfig) effectiveWorkers(cells int) int {
	w := cfg.Scale.Workers
	if w < 1 {
		w = 1
	}
	if w > cells {
		w = cells
	}
	if w > 1 {
		for _, s := range cfg.Schedulers {
			if _, ok := s.(CloneableScheduler); !ok {
				return 1
			}
		}
	}
	return w
}

// schedulerForCell returns the scheduler instance a cell should run:
// an independent clone when executing in parallel, the caller's instance
// itself when sequential (preserving the historical behavior of stateful
// custom schedulers under Workers <= 1).
func schedulerForCell(s Scheduler, parallel bool) Scheduler {
	if !parallel {
		return s
	}
	return s.(CloneableScheduler).CloneScheduler()
}

// cellResult is the outcome of one (run, scheduler) simulation cell.
type cellResult struct {
	stats *RunStats
	err   error
}

// runCell executes one (run, scheduler) cell: it rebuilds the run's
// deterministic network (prices are a pure function of the run seed, so
// every cell of a run sees a bit-identical network without sharing one),
// opens a fresh ledger, and replays the run's shared immutable trace
// through a private cursor.
func runCell(cfg *FigureConfig, run int, sched Scheduler, trace *workload.Trace) (*RunStats, error) {
	seed := cfg.Scale.Seed + int64(run)*7919
	nw, err := netmodel.Complete(cfg.Scale.DCs, workload.UniformPrices(seed), cfg.Setting.Capacity)
	if err != nil {
		return nil, err
	}
	ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(cfg.Scale.Slots))
	if err != nil {
		return nil, err
	}
	rs, err := Run(ledger, sched, trace.Replay(), cfg.Scale.Slots)
	if err != nil {
		return nil, fmt.Errorf("sim: fig %d run %d scheduler %s: %w",
			cfg.Setting.Figure, run, sched.Name(), err)
	}
	return rs, nil
}

// recordTrace generates the deterministic workload trace of one run.
func recordTrace(cfg *FigureConfig, run int) (*workload.Trace, error) {
	seed := cfg.Scale.Seed + int64(run)*7919
	gen, err := workload.NewUniform(workload.UniformConfig{
		NumDCs:        cfg.Scale.DCs,
		MinFiles:      cfg.Scale.FilesMin,
		MaxFiles:      cfg.Scale.FilesMax,
		MinSizeGB:     cfg.Scale.SizeMinGB,
		MaxSizeGB:     cfg.Scale.SizeMaxGB,
		MaxDeadline:   cfg.Setting.MaxT,
		FixedDeadline: !cfg.UniformDeadlines,
		Seed:          seed + 1,
	})
	if err != nil {
		return nil, err
	}
	return workload.Record(gen, cfg.Scale.Slots), nil
}

// RunFigure regenerates one evaluation figure: Scale.Runs independent
// simulations of Scale.Slots slots each, with per-run random prices in
// [1, 10], per-run workloads, and every scheduler replaying the identical
// trace on its own ledger.
//
// When Scale.Workers > 1 the (run, scheduler) cells execute on a worker
// pool: every cell gets its own network, ledger, trace-replay cursor, and
// scheduler clone (see CloneableScheduler), and the per-cell results are
// reduced in fixed (run, scheduler) order afterwards, so the aggregated
// FigureResult is bit-identical to a sequential run — only wall-clock time
// and the interleaving of Progress lines change. Progress callbacks are
// serialized through a mutex and never invoked concurrently. Schedulers
// that do not implement CloneableScheduler force sequential execution.
func RunFigure(cfg FigureConfig) (*FigureResult, error) {
	if err := cfg.Scale.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Schedulers) == 0 {
		cfg.Schedulers = DefaultSchedulers()
	}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}
	var progressMu sync.Mutex
	sayProgress := func(format string, args ...any) {
		progressMu.Lock()
		defer progressMu.Unlock()
		progress(format, args...)
	}

	nSched := len(cfg.Schedulers)
	cells := cfg.Scale.Runs * nSched
	workers := cfg.effectiveWorkers(cells)
	parallel := workers > 1

	// Per-run traces are generated up front (cheap RNG draws, each run's
	// stream is independent) and shared read-only across that run's cells.
	traces := make([]*workload.Trace, cfg.Scale.Runs)
	for run := range traces {
		tr, err := recordTrace(&cfg, run)
		if err != nil {
			return nil, err
		}
		traces[run] = tr
	}

	// Fan out over cells. results is indexed run*nSched+si so the reduce
	// below can walk it in the exact order the sequential loop used.
	results := make([]cellResult, cells)
	var failed atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cell := range jobs {
				if failed.Load() {
					continue // drain remaining cells after a failure
				}
				run, si := cell/nSched, cell%nSched
				sched := schedulerForCell(cfg.Schedulers[si], parallel)
				rs, err := runCell(&cfg, run, sched, traces[run])
				results[cell] = cellResult{stats: rs, err: err}
				if err != nil {
					failed.Store(true)
					continue
				}
				sayProgress("fig %d run %d/%d %-14s cost/slot %.1f (%.1fs)",
					cfg.Setting.Figure, run+1, cfg.Scale.Runs, sched.Name(),
					rs.FinalCostPerSlot, rs.Elapsed.Seconds())
			}
		}()
	}
	for cell := 0; cell < cells; cell++ {
		jobs <- cell
	}
	close(jobs)
	wg.Wait()
	// Surface the first error in (run, scheduler) order, matching where
	// the sequential loop would have stopped.
	for cell := 0; cell < cells; cell++ {
		if err := results[cell].err; err != nil {
			return nil, err
		}
	}

	// Deterministic reduction: fixed (run, scheduler) order, identical to
	// the sequential accumulation (float addition is order-sensitive).
	type agg struct {
		finals  stats.Accumulator
		series  []float64
		dropped int
		dropVol float64
		elapsed time.Duration
		solver  core.SolveStats
	}
	aggs := make([]agg, nSched)
	for i := range aggs {
		aggs[i].series = make([]float64, cfg.Scale.Slots)
	}
	for run := 0; run < cfg.Scale.Runs; run++ {
		for si := range cfg.Schedulers {
			rs := results[run*nSched+si].stats
			aggs[si].finals.Add(rs.FinalCostPerSlot)
			for t, c := range rs.CostSeries {
				aggs[si].series[t] += c
			}
			aggs[si].dropped += rs.DroppedFiles
			aggs[si].dropVol += rs.DroppedVolume
			aggs[si].elapsed += rs.Elapsed
			telemetry.Add(&aggs[si].solver, rs.Solver)
		}
	}
	res := &FigureResult{Setting: cfg.Setting, Scale: cfg.Scale}
	for si, sched := range cfg.Schedulers {
		mean := make([]float64, cfg.Scale.Slots)
		for t := range mean {
			mean[t] = aggs[si].series[t] / float64(cfg.Scale.Runs)
		}
		res.Schedulers = append(res.Schedulers, SchedulerSummary{
			Name:          sched.Name(),
			Final:         aggs[si].finals.Summarize(),
			MeanSeries:    mean,
			DroppedFiles:  aggs[si].dropped,
			DroppedVolume: aggs[si].dropVol,
			Elapsed:       aggs[si].elapsed,
			Solver:        aggs[si].solver,
		})
	}
	return res, nil
}

// Table renders the figure's data as an aligned text table: one row per
// scheduler with the mean cost per interval and its 95% confidence
// interval, matching what the paper plots as bars with error bars.
func (r *FigureResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d (%s): capacity %g GB/slot, max T %d, %d DCs, %d slots, %d runs\n",
		r.Setting.Figure, r.Setting.Name, r.Setting.Capacity, r.Setting.MaxT,
		r.Scale.DCs, r.Scale.Slots, r.Scale.Runs)
	fmt.Fprintf(&b, "%-16s %14s %14s %10s %12s\n",
		"scheduler", "avg cost/slot", "95% CI ±", "dropped", "solve time")
	for _, s := range r.Schedulers {
		fmt.Fprintf(&b, "%-16s %14.2f %14.2f %10d %12s\n",
			s.Name, s.Final.Mean, s.Final.CI95Half, s.DroppedFiles, s.Elapsed.Round(10*time.Millisecond))
	}
	return b.String()
}

// SolverTable renders the aggregated LP solver counters for every
// scheduler that performed instrumented solves (Solver.Solves > 0), one row
// per scheduler: solve count, warm-start acceptance, graph skeleton reuses,
// simplex iterations with the phase-1 share, basis-solve telemetry, and the model-sparsity counters —
// pruned% (share of the unpruned variable universe removed by deadline
// reachability), cg-rnds (column-generation rounds) and gen% (share of the
// delayed universe actually materialized; 100% means generation is not
// restricting anything). It returns the empty string when no scheduler
// reported solver work, so plain (cold) runs render exactly as before.
func (r *FigureResult) SolverTable() string {
	anyLP, anyPath, anyAdm := false, false, false
	for _, s := range r.Schedulers {
		if s.Solver.Solves > 0 {
			anyLP = true
		}
		if s.Solver.PathSolves > 0 {
			anyPath = true
		}
		if s.Solver.Admits+s.Solver.Rejects > 0 {
			anyAdm = true
		}
	}
	if !anyLP {
		return r.admissionTable(anyAdm)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "LP solver work (fig %d):\n", r.Setting.Figure)
	fmt.Fprintf(&b, "%-16s %8s %8s %8s %10s %10s %8s %8s %8s %8s %8s %8s %8s\n",
		"scheduler", "solves", "warm", "reuses", "iters", "phase1",
		"sparse%", "density", "dvx-rst", "d-recmp", "pruned%", "cg-rnds", "gen%")
	for _, s := range r.Schedulers {
		if s.Solver.Solves == 0 {
			continue
		}
		st := s.Solver
		hit, density := 0.0, 0.0
		if n := st.SparseSolves + st.DenseSolves; n > 0 {
			hit = 100 * float64(st.SparseSolves) / float64(n)
		}
		if st.SolveDim > 0 {
			density = float64(st.SolveNNZ) / float64(st.SolveDim)
		}
		pruned, gen := 0.0, 0.0
		if u := st.VarUniverse + st.PrunedVars; u > 0 {
			pruned = 100 * float64(st.PrunedVars) / float64(u)
		}
		if st.ColGenUniverse > 0 {
			gen = 100 * float64(st.ColGenColumns) / float64(st.ColGenUniverse)
		}
		fmt.Fprintf(&b, "%-16s %8d %8d %8d %10d %10d %7.1f%% %8.3f %8d %8d %7.1f%% %8d %7.1f%%\n",
			s.Name, st.Solves, st.WarmSolves, st.GraphReuses,
			st.Iterations, st.Phase1Iter,
			hit, density, st.DevexResets, st.DualRecomputes,
			pruned, st.ColGenRounds, gen)
	}
	return b.String() + r.pathTable(anyPath) + r.admissionTable(anyAdm)
}

// pathTable renders the Dantzig–Wolfe path-pricing counters for every
// scheduler that ran the path master (Solver.PathSolves > 0), one row per
// scheduler: path solves, solves settled by the volume master (slots where
// positive artificials left the verdict to it), the lazy cap/charge rows the
// pricing rounds materialized, and the columns the warm solver recycled from
// earlier slots' optimal bases. It returns the empty string when no
// scheduler used path pricing, so arc-mode runs render exactly as before.
func (r *FigureResult) pathTable(anyPath bool) string {
	if !anyPath {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "path pricing (fig %d):\n", r.Setting.Figure)
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s\n",
		"scheduler", "solves", "fallbacks", "lazy-rows", "recycled")
	for _, s := range r.Schedulers {
		st := s.Solver
		if st.PathSolves == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-16s %10d %10d %10d %10d\n",
			s.Name, st.PathSolves, st.PathFallbacks, st.ColGenRows, st.PathRecycled)
	}
	return b.String()
}

// admissionTable renders the admission fast-tier counters for every
// scheduler that made fast-path decisions (Admits + Rejects > 0), one row
// per scheduler: decisions, background republishes, the provisional
// cost-per-slot the fast tier committed, and the cost the re-optimizer
// shaved off it. It returns the empty string when no scheduler made
// fast-path decisions, so pure LP runs render exactly as before.
func (r *FigureResult) admissionTable(anyAdm bool) string {
	if !anyAdm {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "admission fast tier (fig %d):\n", r.Setting.Figure)
	fmt.Fprintf(&b, "%-18s %8s %8s %10s %12s %12s\n",
		"scheduler", "admits", "rejects", "republish", "fast-cost", "repub-save")
	for _, s := range r.Schedulers {
		st := s.Solver
		if st.Admits+st.Rejects == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-18s %8d %8d %10d %12.2f %12.2f\n",
			s.Name, st.Admits, st.Rejects, st.Republishes, st.FastCost, st.RepublishDelta)
	}
	return b.String()
}

// SeriesCSV renders the mean cost-per-slot time series as CSV with one
// column per scheduler, for external plotting.
func (r *FigureResult) SeriesCSV() string {
	var b strings.Builder
	b.WriteString("slot")
	for _, s := range r.Schedulers {
		fmt.Fprintf(&b, ",%s", s.Name)
	}
	b.WriteByte('\n')
	for t := 0; t < r.Scale.Slots; t++ {
		fmt.Fprintf(&b, "%d", t)
		for _, s := range r.Schedulers {
			fmt.Fprintf(&b, ",%.3f", s.MeanSeries[t])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
