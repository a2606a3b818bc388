package main

import (
	"fmt"
	"time"
)

// defaultSeed is the seed benchmark/expected.json was recorded at.
const defaultSeed = 2012

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 24

// metricDef is one line of the metric catalogue. BENCHMARK.json is printed
// from this table (-manifest) and a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd lists the gated metrics: what a user of the system sees, in
// forms that hold still on a host whose speed does not (README.md). Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"in_limit_share", "share", "higher", 0.20},
	{"cost_vs_direct", "ratio", "lower", 0.15},
	{"peak_mem_mb", "MB", "lower", 0.25},
}

// timings lists the untraced run's wall-clock readings. They are printed,
// stored and compared like the gated metrics, but they move with the host's
// speed by more than any bound the driver accepts, so BENCHMARK.json does
// not list them and the result line leaves them out.
var timings = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"slot_ms", "ms", "lower", 0.25},
}

// untraced is everything an untraced run reports.
var untraced = append(append([]metricDef{}, endToEnd...), timings...)

// perLayer lists the diagnostics of single layers, reported by the traced
// run. A metric that does not apply to a workload (http.* on a figure
// workload) reads 0 there.
var perLayer = []metricDef{
	// cmd/postcard-server over loopback HTTP, and the load generator.
	{Name: "http.admit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.admit_overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.admit_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "http.admit_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "http.admit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "http.admit_max_ms", Unit: "ms", Better: "lower"},
	{Name: "http.admit_in_limit_share", Unit: "share", Better: "higher"},
	{Name: "http.admit_resp_bytes_p50", Unit: "bytes", Better: "lower"},
	{Name: "http.reject_share", Unit: "share", Better: "lower"},
	{Name: "http.plan_read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.plan_read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "http.advance_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.backlog_max_ms", Unit: "ms", Better: "lower"},
	// internal/server, called in process.
	{Name: "server.admit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.admit_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.admit_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.planbyid_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.advance_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.plans_retained", Unit: "count", Better: "lower"},
	// internal/admission, replayed single-threaded.
	{Name: "admission.admit_p50_us", Unit: "us", Better: "lower"},
	{Name: "admission.admit_p99_us", Unit: "us", Better: "lower"},
	{Name: "admission.expansions_per_admit", Unit: "count", Better: "lower"},
	{Name: "admission.republish_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "admission.republish_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "admission.swap_p50_us", Unit: "us", Better: "lower"},
	{Name: "admission.takeplan_p50_us", Unit: "us", Better: "lower"},
	{Name: "admission.republishes_per_admit", Unit: "count", Better: "lower"},
	{Name: "admission.republish_win_share", Unit: "share", Better: "higher"},
	// internal/core, replayed on the workload's own batches.
	{Name: "core.solve_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_max_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solves", Unit: "count", Better: "lower"},
	{Name: "core.vars_per_solve", Unit: "count", Better: "lower"},
	{Name: "core.pruned_share", Unit: "share", Better: "higher"},
	{Name: "core.colgen_rounds_per_solve", Unit: "count", Better: "lower"},
	{Name: "core.colgen_gen_share", Unit: "share", Better: "lower"},
	{Name: "core.warm_share", Unit: "share", Better: "higher"},
	{Name: "core.graph_reuse_share", Unit: "share", Better: "higher"},
	{Name: "core.path_lazy_rows_per_solve", Unit: "count", Better: "lower"},
	{Name: "core.path_recycled_per_solve", Unit: "count", Better: "higher"},
	{Name: "core.path_fallbacks", Unit: "count", Better: "lower"},
	// internal/lp, through core's counters and a direct probe.
	{Name: "lp.iters_per_solve", Unit: "count", Better: "lower"},
	{Name: "lp.phase1_share", Unit: "share", Better: "lower"},
	{Name: "lp.sparse_solve_share", Unit: "share", Better: "higher"},
	{Name: "lp.solve_density", Unit: "share", Better: "lower"},
	{Name: "lp.devex_resets_per_solve", Unit: "count", Better: "lower"},
	{Name: "lp.dual_recomputes_per_solve", Unit: "count", Better: "lower"},
	{Name: "lp.backend_workers", Unit: "count", Better: "lower"},
	{Name: "lp.probe_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "lp.probe_iters", Unit: "count", Better: "lower"},
	// internal/timegraph, internal/schedule, internal/netmodel.
	{Name: "timegraph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "timegraph.rebase_us", Unit: "us", Better: "lower"},
	{Name: "timegraph.edges", Unit: "count", Better: "lower"},
	{Name: "schedule.verify_p50_us", Unit: "us", Better: "lower"},
	{Name: "schedule.apply_p50_us", Unit: "us", Better: "lower"},
	{Name: "schedule.actions_per_slot", Unit: "count", Better: "lower"},
	{Name: "netmodel.res_clone_p50_us", Unit: "us", Better: "lower"},
	{Name: "netmodel.cost_per_slot_us", Unit: "us", Better: "lower"},
	// internal/sim, internal/flowbased, internal/workload.
	{Name: "sim.figure_wall_s", Unit: "s", Better: "lower"},
	{Name: "sim.schedule_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.schedule_share", Unit: "share", Better: "higher"},
	{Name: "sim.engine_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "sim.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "flowbased.solve_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.gen_ms", Unit: "ms", Better: "lower"},
	// The plan's quality and the trace itself.
	{Name: "quality.cost_per_slot", Unit: "cost", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

type workloadKind int

const (
	kindDaemon workloadKind = iota
	kindFigure
)

// workloadSpec sizes one workload. README.md records why each number is
// what it is.
type workloadSpec struct {
	Name string
	Why  string
	Kind workloadKind
	// Limit is the latency limit of the workload's operation (an admit, or
	// a Schedule call of the Postcard scheduler): in_limit_share is the
	// share of operations answered within it: the issue's 10 ms for an
	// admit, and just beyond the 90th percentile on the baseline host for a
	// Schedule call.
	Limit time.Duration

	// Daemon workloads: an open loop of Poisson arrivals at Rate ops/s, 80 %
	// transfers and 20 % plan reads, one slot advance per AdvanceEvery
	// transfers, against a complete graph of DCs datacenters.
	DCs          int
	Rate         float64
	AdvanceEvery int

	// Figure workloads: sim.RunFigure on the paper's Figure setting with
	// the registry schedulers named; the first is the Postcard scheduler
	// whose Schedule calls are the workload's operation.
	Figure     int
	Slots      int
	Runs       int
	FilesMin   int
	FilesMax   int
	Schedulers []string
}

var workloads = []workloadSpec{
	{
		Name: "daemon-urgent", Kind: kindDaemon, Limit: 10 * time.Millisecond, DCs: 8, Rate: 150, AdvanceEvery: 12,
		Why: "8 DCs, 150 op/s: LP solves take under 1 ms, so HTTP, JSON, server bookkeeping and the admission fast path do most of the work",
	},
	{
		Name: "daemon-wide", Kind: kindDaemon, Limit: 10 * time.Millisecond, DCs: 24, Rate: 15, AdvanceEvery: 8,
		Why: "24 DCs, 15 op/s: each eager republish is a 6-20 ms arc-model solve under the server lock, so core/lp and lock waiting set the admit tail and the commit time",
	},
	{
		Name: "figure-tolerant", Kind: kindFigure, Limit: 75 * time.Millisecond, Figure: 7, Slots: 16, Runs: 4, FilesMin: 2, FilesMax: 2,
		Schedulers: []string{"postcard", "flow-based"},
		Why:        "Fig. 7 setting (30 GB/slot, T=8) in process: cold core.Solve on deep time-expanded arc models, pruning, column generation, no server",
	},
	{
		Name: "figure-dc64", Kind: kindFigure, Limit: 300 * time.Millisecond, Figure: 4, Slots: 24, Runs: 1, FilesMin: 4, FilesMax: 8,
		DCs:        64,
		Schedulers: []string{"postcard-path"},
		Why:        "Fig. 4 setting on 64 DCs with path pricing: the pricing oracle, lazy rows and a large master simplex work and the arc builder does none",
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []metricDef     `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.Name, w.Why})
	}
	return m
}
