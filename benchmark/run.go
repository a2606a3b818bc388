package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/stats"
	"github.com/interdc/postcard/internal/workload"
)

//go:embed expected.json
var expectedJSON []byte

// costTol is the relative tolerance of every cost equality the benchmark
// checks (expected.json, the lp probe against core).
const costTol = 1e-6

// runOptions is how one run is sized and where it may write.
type runOptions struct {
	Seconds   float64
	Reps      int    // daemon repetitions; the fewest figure repetitions
	Smoke     bool   // in-process daemon and warmupSlots-slot figures, for the tests
	ServerBin string // the built cmd/postcard-server; empty under Smoke: the daemon runs in process
	WorkDir   string // scratch space inside the checkout
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the contract's result line plus
// what the human-readable report and -compare need.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     int              `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Samples is the sample count behind each percentile or median.
	Samples  map[string]int `json:"samples"`
	Problems []string       `json:"problems,omitempty"`
	// SelfTimes is the traced run's table of span self times, one line per
	// span name, for the report.
	SelfTimes []string `json:"-"`
	// StealPct is the share of CPU time the hypervisor withheld during the
	// run, in percent: how disturbed the host was.
	StealPct float64 `json:"host_steal_pct"`
}

// set records one metric of the catalogue; n is its sample count, if it has one.
func (r *runResult) set(name string, v float64, n int) {
	for _, defs := range [][]metricDef{untraced, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = value{v, d.Unit}
				if n > 0 {
					r.Samples[name] = n
				}
				return
			}
		}
	}
	panic("metric not in the catalogue: " + name)
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runWorkload measures one workload once: the end-to-end metrics untraced,
// or the per-layer metrics from a traced run.
func runWorkload(ctx context.Context, w workloadSpec, seed int64, trace int, o runOptions) (*runResult, error) {
	r := &runResult{Workload: w.Name, Seed: seed, Trace: trace,
		Metrics: make(map[string]value), Samples: make(map[string]int)}
	var err error
	switch {
	case w.Kind == kindDaemon && trace == 0:
		err = daemonEndToEnd(ctx, r, w, o)
	case w.Kind == kindDaemon:
		err = daemonPerLayer(ctx, r, w, o)
	case trace == 0:
		err = figureEndToEnd(ctx, r, w, o)
	default:
		err = figurePerLayer(ctx, r, w, o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if trace != 0 {
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.Name]; !ok {
				r.Metrics[d.Name] = value{0, d.Unit} // does not apply to this workload
			}
		}
	}
	r.Correct = len(r.Problems) == 0
	return r, nil
}

// warmup is how long the set-up of one repetition of w warms up for.
func (o runOptions) warmup(w workloadSpec) time.Duration {
	switch {
	case o.Smoke:
		return smokeWarmup
	case w.Kind == kindDaemon:
		return daemonWarmup
	default:
		return figureWarmup
	}
}

// latencies splits a timed phase's samples by kind, in milliseconds from
// the due time, and counts operations and failures. InLimit counts the
// transfers answered within Limit.
type latencies struct {
	Limit                time.Duration
	Admit, Read, Advance []float64
	Late                 []float64
	Bytes                []float64
	Attempted, Failed    int
	Transfers, Rejected  int
	InLimit              int
}

func (l *latencies) add(samples []sample) {
	for _, s := range samples {
		if s.Skipped {
			continue
		}
		l.Attempted++
		if s.Kind == opTransfer {
			l.Transfers++
		}
		if s.Err != nil {
			l.Failed++
			continue
		}
		l.Late = append(l.Late, ms(s.Late))
		switch s.Kind {
		case opTransfer:
			l.Admit = append(l.Admit, ms(s.Latency))
			l.Bytes = append(l.Bytes, float64(s.Bytes))
			if !s.Answer.Admitted {
				l.Rejected++
			}
			if s.Latency <= l.Limit {
				l.InLimit++
			}
		case opRead:
			l.Read = append(l.Read, ms(s.Latency))
		case opAdvance:
			l.Advance = append(l.Advance, ms(s.Latency))
		}
	}
}

// checkDaemonRep folds one repetition's correctness findings into the run.
func checkDaemonRep(r *runResult, rep int, res *daemonRepResult) {
	for _, p := range res.Problems {
		r.problem("rep %d: %s", rep, p)
	}
	failed, backlog := false, time.Duration(0)
	for _, s := range res.Samples {
		if s.Err != nil && !failed {
			r.problem("rep %d: %s failed: %v", rep, s.Kind, s.Err)
			failed = true // one example is enough; Failed has the count
		}
		backlog = max(backlog, s.Late)
	}
	if backlog > overloadLimit {
		r.problem("rep %d: overloaded: the generator fell %.0f ms behind its schedule", rep, ms(backlog))
	}
}

func daemonEndToEnd(ctx context.Context, r *runResult, w workloadSpec, o runOptions) error {
	lat := latencies{Limit: w.Limit}
	var setups, costRatios, rss []float64
	per := time.Duration(o.Seconds / float64(o.Reps) * float64(time.Second))
	for rep := 0; rep < o.Reps; rep++ {
		in, err := genDaemonRep(w, repSeed(r.Seed, rep), o.warmup(w), per)
		if err != nil {
			return err
		}
		runtime.GC()
		res, err := runDaemonRep(ctx, in, o.ServerBin, o.WorkDir, nil)
		if err != nil {
			return fmt.Errorf("rep %d: %w", rep, err)
		}
		checkDaemonRep(r, rep, res)
		lat.add(res.Samples)
		setups = append(setups, res.Setup.Seconds())
		costRatios = append(costRatios, ratio(res.Cost, res.Direct))
		rss = append(rss, res.RSSPeak)
	}
	r.set("setup_s", median(setups), len(setups))
	r.set("in_limit_share", ratio(float64(lat.InLimit), float64(lat.Transfers)), lat.Transfers)
	r.set("cost_vs_direct", median(costRatios), len(costRatios))
	r.set("peak_mem_mb", median(rss), len(rss))
	r.set("op_p50_ms", percentile(sorted(lat.Admit), 50), len(lat.Admit))
	r.set("slot_ms", percentile(sorted(lat.Advance), 50), len(lat.Advance))
	r.Attempted, r.Failed = lat.Attempted, lat.Failed
	return nil
}

// expectedCost is the Postcard scheduler's cost per slot of the first
// repetition at the default seed, as recorded in expected.json.
func expectedCost(name string) (float64, error) {
	var want map[string]float64
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return 0, fmt.Errorf("expected.json: %w", err)
	}
	c, ok := want[name]
	if !ok {
		return 0, fmt.Errorf("expected.json has no entry for %s", name)
	}
	return c, nil
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(b), 1e-12)
}

// figureSize is the slots and runs of one figure repetition.
func figureSize(w workloadSpec, o runOptions) (slots, runs int) {
	if o.Smoke {
		return warmupSlots, 1
	}
	return w.Slots, w.Runs
}

// checkFigureRep folds one repetition's correctness findings into the run.
func checkFigureRep(r *runResult, w workloadSpec, o runOptions, rep int, res *figureRepResult) error {
	if res.Result.Schedulers[0].Solver.Solves == 0 {
		r.problem("rep %d: the figure reports no LP solves: the timing decorator hides SolverStats", rep)
	}
	if c := res.Cost; !(c > 0) || math.IsInf(c, 0) {
		r.problem("rep %d: cost per slot %v is not a positive number", rep, c)
	}
	if rep == 0 && r.Seed == defaultSeed && !o.Smoke {
		want, err := expectedCost(w.Name)
		if err != nil {
			return err
		}
		if relDiff(res.Cost, want) > costTol {
			r.problem("cost per slot %.9g differs from expected.json's %.9g", res.Cost, want)
		}
	}
	return nil
}

// anotherFigureRep reports whether a figure run that began at start goes on
// to repetition rep. Repetitions of fixed size run until the budget of
// Seconds is spent: after the first Reps, the next one starts only if at
// least half of it fits. The smoke pass stops at Reps.
func (o runOptions) anotherFigureRep(rep int, start time.Time) bool {
	if rep < o.Reps {
		return true
	}
	elapsed := time.Since(start)
	return !o.Smoke && elapsed+elapsed/time.Duration(2*rep) <= time.Duration(o.Seconds*float64(time.Second))
}

// figureSetups is how many times a figure run sets up before it measures.
const figureSetups = 3

func figureEndToEnd(ctx context.Context, r *runResult, w workloadSpec, o runOptions) error {
	slots, runs := figureSize(w, o)
	var setups, solveP50, slotMS, costRatios []float64
	for i := 0; i < figureSetups; i++ {
		d, err := figureSetup(w, repSeed(r.Seed, i), o.warmup(w))
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	solves, inLimit := 0, 0
	start := time.Now()
	for rep := 0; o.anotherFigureRep(rep, start); rep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := runFigureRep(w, repSeed(r.Seed, rep), slots, runs, nil)
		if err != nil {
			return fmt.Errorf("rep %d: %w", rep, err)
		}
		if err := checkFigureRep(r, w, o, rep, res); err != nil {
			return err
		}
		solve := res.Calls.ms[res.Calls.primary]
		for _, d := range solve {
			if d <= ms(w.Limit) {
				inLimit++
			}
		}
		solves += len(solve)
		solveP50 = append(solveP50, percentile(sorted(solve), 50))
		slotMS = append(slotMS, ms(res.Wall)/float64(res.Slots))
		costRatios = append(costRatios, ratio(res.Cost, res.Direct))
		r.Attempted += res.Calls.calls
		r.Failed += res.Calls.errs
	}
	// Each repetition is its own instance, so the run reports the median
	// repetition rather than pooling slots of unlike instances.
	r.set("setup_s", median(setups), len(setups))
	r.set("in_limit_share", ratio(float64(inLimit), float64(solves)), solves)
	r.set("cost_vs_direct", median(costRatios), len(costRatios))
	r.set("peak_mem_mb", rssPeakMB(os.Getpid()), 0)
	r.set("op_p50_ms", median(solveP50), solves)
	r.set("slot_ms", median(slotMS), len(slotMS))
	return nil
}

// setCore reports the core, lp, timegraph, schedule and netmodel metrics of
// a layer replay.
func setCore(r *runResult, lt *layerTimes, c coreCounts) {
	solves := float64(c.Solves)
	n := len(lt.d["core.solve"])
	r.set("core.solve_p50_ms", lt.pct("core.solve", 50, ms), n)
	r.set("core.solve_p90_ms", lt.pct("core.solve", 90, ms), n)
	r.set("core.solve_max_ms", lt.pct("core.solve", 100, ms), n)
	r.set("core.solves", solves, 0)
	r.set("core.vars_per_solve", ratio(float64(c.Variables), solves), 0)
	r.set("core.pruned_share", ratio(float64(c.Pruned), float64(c.Pruned+c.Universe)), 0)
	r.set("core.colgen_rounds_per_solve", ratio(float64(c.Rounds), solves), 0)
	r.set("core.colgen_gen_share", ratio(float64(c.GenColumns), float64(c.GenUniverse)), 0)
	r.set("core.warm_share", ratio(float64(c.Warm), solves), 0)
	r.set("core.graph_reuse_share", ratio(float64(c.GraphReuses), solves), 0)
	r.set("core.path_lazy_rows_per_solve", ratio(float64(c.LazyRows), solves), 0)
	r.set("core.path_recycled_per_solve", ratio(float64(c.Recycled), solves), 0)
	r.set("core.path_fallbacks", float64(c.Fallbacks), 0)
	r.set("lp.iters_per_solve", ratio(float64(c.Iterations), solves), 0)
	r.set("lp.phase1_share", ratio(float64(c.Phase1), float64(c.Iterations)), 0)
	r.set("lp.sparse_solve_share", ratio(float64(c.Sparse), float64(c.Sparse+c.Dense)), 0)
	r.set("lp.solve_density", ratio(float64(c.NNZ), float64(c.Dim)), 0)
	r.set("lp.devex_resets_per_solve", ratio(float64(c.DevexResets), solves), 0)
	r.set("lp.dual_recomputes_per_solve", ratio(float64(c.DualRecomputes), solves), 0)
	r.set("lp.backend_workers", float64(c.Workers), 0)
	r.set("timegraph.build_ms", lt.pct("timegraph.build", 50, ms), len(lt.d["timegraph.build"]))
	r.set("timegraph.rebase_us", lt.pct("timegraph.rebase", 50, us), len(lt.d["timegraph.rebase"]))
	r.set("timegraph.edges", float64(c.Edges), 0)
	r.set("schedule.verify_p50_us", lt.pct("schedule.verify", 50, us), len(lt.d["schedule.verify"]))
	r.set("schedule.apply_p50_us", lt.pct("schedule.apply", 50, us), len(lt.d["schedule.apply"]))
	r.set("schedule.actions_per_slot", ratio(float64(c.Actions), float64(c.Commits)), 0)
	r.set("netmodel.res_clone_p50_us", lt.pct("netmodel.res_clone", 50, us), len(lt.d["netmodel.res_clone"]))
	r.set("netmodel.cost_per_slot_us", lt.pct("netmodel.cost_per_slot", 50, us), len(lt.d["netmodel.cost_per_slot"]))
}

// probeLP runs the lp probe on a workload's first batch and checks it against a
// stateless core.Solve of the same batch on the same empty ledger. Only the
// 8-DC workloads run it: the full arc model of a wide overlay is the cost
// the other formulations exist to avoid.
func probeLP(r *runResult, lt *layerTimes, b batch, charging netmodel.Charging) error {
	if b.Network == nil || b.Network.NumDCs() > 8 {
		return nil
	}
	ledger, err := netmodel.NewLedger(b.Network, charging)
	if err != nil {
		return err
	}
	want, err := core.Solve(ledger, b.Files, b.Slot, nil)
	if err != nil {
		return fmt.Errorf("lp probe reference: %w", err)
	}
	got, iters, err := lpProbe(lt, b, charging, 1e-6) // core's default Epsilon
	if err != nil {
		return err
	}
	if relDiff(got, want.CostPerSlot) > costTol {
		r.problem("lp probe: full arc model costs %.9g per slot, core.Solve %.9g", got, want.CostPerSlot)
	}
	r.set("lp.probe_solve_ms", lt.pct("lp.probe_solve", 50, ms), 1)
	r.set("lp.probe_iters", float64(iters), 0)
	return nil
}

// finishTrace writes the spans out and reports their count and self times.
func finishTrace(r *runResult, tr *tracer, o runOptions) error {
	r.set("trace.spans", float64(tr.len()), 0)
	r.SelfTimes = tr.selfTimeTable()
	return tr.write(filepath.Join(o.WorkDir, fmt.Sprintf("trace-%s-%d.json", r.Workload, r.Seed)))
}

func daemonPerLayer(ctx context.Context, r *runResult, w workloadSpec, o runOptions) error {
	// Four phases share the budget: the binary over HTTP, the in-process
	// server untraced and traced, and the single-threaded replays. All four
	// use the first repetition's schedule, so their numbers subtract.
	per := time.Duration(o.Seconds / 4 * float64(time.Second))
	in, err := genDaemonRep(w, repSeed(r.Seed, 0), o.warmup(w), per)
	if err != nil {
		return err
	}
	phase := func(name, bin string, tr *tracer) (*daemonRepResult, *latencies, error) {
		runtime.GC()
		res, err := runDaemonRep(ctx, in, bin, o.WorkDir, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s phase: %w", name, err)
		}
		lat := &latencies{Limit: w.Limit}
		lat.add(res.Samples)
		checkDaemonRep(r, 0, res)
		r.Attempted += lat.Attempted
		r.Failed += lat.Failed
		return res, lat, nil
	}
	overHTTP, httpLat, err := phase("http", o.ServerBin, nil)
	if err != nil {
		return err
	}
	_, plainLat, err := phase("in-process", "", nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, srvLat, err := phase("traced", "", tr)
	if err != nil {
		return err
	}

	admit, late := sorted(httpLat.Admit), sorted(httpLat.Late)
	r.set("http.admit_p50_ms", percentile(admit, 50), len(admit))
	r.set("http.admit_mean_ms", stats.Mean(admit), len(admit))
	r.set("http.admit_p90_ms", percentile(admit, 90), len(admit))
	r.set("http.admit_p99_ms", percentile(admit, 99), len(admit))
	r.set("http.admit_max_ms", percentile(admit, 100), len(admit))
	r.set("http.admit_in_limit_share", ratio(float64(httpLat.InLimit), float64(httpLat.Transfers)), httpLat.Transfers)
	r.set("http.admit_resp_bytes_p50", percentile(sorted(httpLat.Bytes), 50), len(httpLat.Bytes))
	r.set("http.reject_share", ratio(float64(httpLat.Rejected), float64(httpLat.Transfers)), httpLat.Transfers)
	r.set("http.plan_read_p50_ms", percentile(sorted(httpLat.Read), 50), len(httpLat.Read))
	r.set("http.plan_read_p99_ms", percentile(sorted(httpLat.Read), 99), len(httpLat.Read))
	r.set("http.advance_p50_ms", percentile(sorted(httpLat.Advance), 50), len(httpLat.Advance))
	r.set("proc.rss_peak_mb", overHTTP.RSSPeak, 0)
	r.set("gen.late_p99_ms", percentile(late, 99), len(late))
	r.set("gen.backlog_max_ms", percentile(late, 100), len(late))

	srvAdmit := sorted(srvLat.Admit)
	r.set("server.admit_p50_ms", percentile(srvAdmit, 50), len(srvAdmit))
	r.set("server.admit_p90_ms", percentile(srvAdmit, 90), len(srvAdmit))
	r.set("server.planbyid_p50_us", 1000*percentile(sorted(srvLat.Read), 50), len(srvLat.Read))
	r.set("server.advance_p50_ms", percentile(sorted(srvLat.Advance), 50), len(srvLat.Advance))
	r.set("server.plans_retained", float64(traced.Status.Plans), 0)
	r.set("http.admit_overhead_p50_ms", percentile(admit, 50)-percentile(srvAdmit, 50), 0)
	r.set("admission.republishes_per_admit",
		ratio(float64(traced.Status.Solver.Solves), float64(traced.Status.Admission.Admits)), 0)
	plain := percentile(sorted(plainLat.Admit), 50)
	r.set("trace.overhead_pct", 100*ratio(percentile(srvAdmit, 50)-plain, plain), 0)

	lt := newLayerTimes(tr)
	charging := netmodel.Charging{Q: 100, PeriodSlots: daemonPeriod}
	replayStart, replaySpan := time.Now(), tr.reserve()
	var counts coreCounts
	adm, err := replayAdmission(lt, in, newLayerReplay(lt, charging, coreMode{Warm: true}, &counts, replaySpan))
	if err != nil {
		return err
	}
	tr.record(replaySpan, 0, 0, "replay", replayStart, time.Now())
	if err := probeLP(r, lt, adm.First, charging); err != nil {
		return err
	}
	r.Problems = append(r.Problems, lt.problems...)
	setCore(r, lt, counts)
	r.set("quality.cost_per_slot", overHTTP.Cost, 0)

	nAdmit := len(lt.d["admission.admit"])
	r.set("admission.admit_p50_us", lt.pct("admission.admit", 50, us), nAdmit)
	r.set("admission.admit_p99_us", lt.pct("admission.admit", 99, us), nAdmit)
	r.set("admission.expansions_per_admit", ratio(float64(adm.Expansions), float64(nAdmit)), 0)
	r.set("admission.republish_p50_ms", lt.pct("admission.republish", 50, ms), adm.RepublishCalls)
	r.set("admission.republish_p90_ms", lt.pct("admission.republish", 90, ms), adm.RepublishCalls)
	r.set("admission.takeplan_p50_us", lt.pct("admission.takeplan", 50, us), len(lt.d["admission.takeplan"]))
	r.set("admission.republish_win_share", ratio(float64(adm.Stats.Republishes), float64(adm.RepublishCalls)), 0)
	// The controller's solver and the layer replay's see the same sequence
	// of batches, so the i-th Republish and the i-th core solve pair up:
	// what Republish costs beyond its solve is the reservation swap.
	var swap []float64
	for i, d := range lt.d["admission.republish"] {
		swap = append(swap, us(d-lt.d["core.solve"][i]))
	}
	r.set("admission.swap_p50_us", percentile(sorted(swap), 50), len(swap))
	r.set("server.admit_wait_p50_ms",
		percentile(srvAdmit, 50)-lt.pct("admission.admit", 50, ms), 0)
	return finishTrace(r, tr, o)
}

// coreMode is how the workload's Postcard scheduler calls core, which the
// layer replay must mirror: registry "postcard" is the stateless core.Solve,
// "postcard-path" a warm core.Solver with path pricing.
func (w workloadSpec) coreMode() coreMode {
	if w.Schedulers[0] == "postcard-path" {
		return coreMode{Config: &core.Config{Pricing: core.PricingPath}, Warm: true}
	}
	return coreMode{}
}

func figurePerLayer(ctx context.Context, r *runResult, w workloadSpec, o runOptions) error {
	slots, runs := figureSize(w, o)
	tr := newTracer()
	lt := newLayerTimes(tr)
	charging := netmodel.MaxCharging(slots)
	var counts coreCounts
	var plainWall, tracedWall, share, overhead, alloc, gcs, sched, flow, gen []float64
	var first batch
	if _, err := figureSetup(w, repSeed(r.Seed, 0), o.warmup(w)); err != nil {
		return err
	}
	start := time.Now()
	// One repetition is an untraced run, a traced run of the same instance
	// (alternating which goes first) and the layer replay of its batches.
	for rep := 0; o.anotherFigureRep(rep, start); rep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		seed := repSeed(r.Seed, rep)
		var plain, traced *figureRepResult
		for _, withTrace := range []bool{rep%2 == 1, rep%2 == 0} {
			var err error
			if withTrace {
				traced, err = runFigureRep(w, seed, slots, runs, tr)
			} else {
				plain, err = runFigureRep(w, seed, slots, runs, nil)
			}
			if err != nil {
				return fmt.Errorf("rep %d: %w", rep, err)
			}
		}
		if err := checkFigureRep(r, w, o, rep, traced); err != nil {
			return err
		}
		r.Attempted += traced.Calls.calls
		r.Failed += traced.Calls.errs

		primary := 0.0
		for _, d := range traced.Calls.ms[traced.Calls.primary] {
			primary += d
		}
		sched = append(sched, traced.Calls.ms[traced.Calls.primary]...)
		plainWall = append(plainWall, plain.Wall.Seconds())
		tracedWall = append(tracedWall, traced.Wall.Seconds())
		share = append(share, ratio(primary, ms(traced.Wall)))
		// By construction the Schedule spans and the engine's own time add
		// up to the traced wall clock exactly.
		overhead = append(overhead, ms(traced.Wall-traced.Calls.busy))
		alloc = append(alloc, plain.AllocMB)
		gcs = append(gcs, float64(plain.GCs))
		flow = append(flow, traced.Calls.ms["flow-based"]...)

		genStart := time.Now()
		g, err := workload.NewUniform(workload.UniformConfig{
			NumDCs: traced.Result.Scale.DCs, MinFiles: w.FilesMin, MaxFiles: w.FilesMax,
			MinSizeGB: traced.Result.Scale.SizeMinGB, MaxSizeGB: traced.Result.Scale.SizeMaxGB,
			MaxDeadline: traced.Result.Setting.MaxT, FixedDeadline: true, Seed: seed,
		})
		if err != nil {
			return err
		}
		workload.Record(g, slots)
		gen = append(gen, ms(time.Since(genStart)))

		replayStart, replaySpan := time.Now(), tr.reserve()
		itersBefore := counts.Iterations
		layers := newLayerReplay(lt, charging, w.coreMode(), &counts, replaySpan)
		for i, b := range traced.Calls.batches {
			if err := layers.step(i, b); err != nil {
				return err
			}
		}
		layers.finish()
		tr.record(replaySpan, 0, rep, "replay", replayStart, time.Now())
		if got, want := counts.Iterations-itersBefore, traced.Result.Schedulers[0].Solver.Iterations; got != want {
			r.problem("rep %d: layer replay took %d simplex iterations, the figure's scheduler %d: the replay does not mirror it", rep, got, want)
		}
		if rep == 0 {
			first = traced.Calls.batches[0]
			r.set("quality.cost_per_slot", traced.Cost, 0)
		}
	}
	n := len(plainWall)
	r.set("sim.figure_wall_s", median(plainWall), n)
	r.set("sim.schedule_p90_ms", percentile(sorted(sched), 90), len(sched))
	r.set("sim.schedule_share", median(share), n)
	r.set("sim.engine_overhead_ms", median(overhead), n)
	r.set("sim.alloc_mb", median(alloc), n)
	r.set("sim.gc_cycles", median(gcs), n)
	r.set("trace.overhead_pct", 100*ratio(median(tracedWall)-median(plainWall), median(plainWall)), n)
	r.set("flowbased.solve_p50_ms", percentile(sorted(flow), 50), len(flow))
	r.set("workload.gen_ms", median(gen), n)
	if err := probeLP(r, lt, first, charging); err != nil {
		return err
	}
	r.Problems = append(r.Problems, lt.problems...)
	setCore(r, lt, counts)
	return finishTrace(r, tr, o)
}
