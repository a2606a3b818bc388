// Package postcard is a Go implementation of Postcard (Feng, Li, Li —
// IEEE ICDCS 2012): minimizing operational costs on inter-datacenter
// traffic with store-and-forward at intermediate datacenters.
//
// The package is the public facade of the library. It re-exports the
// supported surface of the internal packages:
//
//   - network modeling: datacenters, priced links, percentile-based
//     charging ledgers (Network, Ledger, Charging, File);
//   - the Postcard optimizer: an LP on a time-expanded graph that jointly
//     routes, splits, schedules, and stores traffic (New, Client.Solve);
//   - the paper's baselines: the flow-based model in four flavors, run
//     through the scheduler registry (SchedulerByName);
//   - the Sec. VI extension problems (MaxBulk, MaxUnderBudget, AdmitFiles);
//   - the online simulator and the experiment driver regenerating the
//     paper's evaluation figures (Run, RunFigure);
//   - workload generators and reproducible traces;
//   - the admission daemon behind cmd/postcard-server (NewServer), with
//     snapshot/restore of the full solver state — ledger, reservations,
//     open batch, and simplex basis — for bit-identical resumes
//     (LedgerFromSnapshot, RestoreAdmissionController, RestoreServer).
//
// A minimal end-to-end use:
//
//	nw, files, _ := postcard.Fig3Topology(0)
//	ledger, _ := postcard.NewLedger(nw, postcard.MaxCharging(100))
//	res, _ := postcard.New().Solve(ledger, files, 0)
//	_ = res.Schedule.Apply(ledger)
//	fmt.Println("cost per interval:", ledger.CostPerSlot())
//
// Everything is deterministic given seeds, uses only the standard library,
// and ships with its own sparse revised-simplex LP solver.
package postcard

import (
	"io"
	"strings"

	"github.com/interdc/postcard/internal/admission"
	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/extensions"
	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
	"github.com/interdc/postcard/internal/server"
	"github.com/interdc/postcard/internal/sim"
	"github.com/interdc/postcard/internal/stats"
	"github.com/interdc/postcard/internal/timegraph"
	"github.com/interdc/postcard/internal/workload"
)

// Network modeling types.
type (
	// DC identifies a datacenter by index.
	DC = netmodel.DC
	// Link is a directed overlay link between datacenters.
	Link = netmodel.Link
	// Network is the inter-datacenter overlay: priced, capacitated links.
	Network = netmodel.Network
	// File is the paper's four-tuple (source, destination, size, deadline).
	File = netmodel.File
	// Charging is a q-th percentile charging scheme.
	Charging = netmodel.Charging
	// Ledger tracks per-slot traffic volumes and charged volumes per link.
	Ledger = netmodel.Ledger
	// EvalSetting is one of the paper's four evaluation settings.
	EvalSetting = netmodel.EvalSetting
	// Instance is the JSON-serializable offline problem description.
	Instance = netmodel.Instance
	// InstanceLink and InstanceFile are Instance components.
	InstanceLink = netmodel.InstanceLink
	// InstanceFile describes one file within an Instance.
	InstanceFile = netmodel.InstanceFile
)

// Scheduling types.
type (
	// Schedule is a routing-and-scheduling plan (transfers and holdovers).
	Schedule = schedule.Schedule
	// Action is one scheduled movement or holdover.
	Action = schedule.Action
	// VerifyConfig parameterizes the independent schedule verifier.
	VerifyConfig = schedule.VerifyConfig
)

// Optimizer types.
type (
	// Config tunes the Postcard optimizer.
	Config = core.Config
	// Result is a Postcard optimization outcome.
	Result = core.Result
	// StoragePolicy controls where store-and-forward holdovers may occur.
	StoragePolicy = core.StoragePolicy
	// PricingMode selects the LP formulation: per-arc flow variables
	// (PricingArc, the default) or Dantzig–Wolfe path pricing (PricingPath).
	PricingMode = core.PricingMode
	// UnroutableError reports structurally undeliverable files.
	UnroutableError = core.UnroutableError
	// IncrementalSolver is the warm-started slot-by-slot solver that backs
	// New(WithWarmStart()): consecutive solves reuse the
	// time-expanded graph skeleton and warm-start each LP from the previous
	// slot's basis. See core.Solver.
	IncrementalSolver = core.Solver
	// SolveStats aggregates the LP work an IncrementalSolver performed.
	SolveStats = core.SolveStats
)

// Extension types (Sec. VI problems).
type (
	// ExtResult is the outcome of a bulk or budget optimization.
	ExtResult = extensions.Result
)

// Simulation types.
type (
	// Scheduler makes per-slot decisions in the online simulator.
	Scheduler = sim.Scheduler
	// CloneableScheduler is a Scheduler that can produce independent
	// copies of itself; RunFigure requires it for parallel execution
	// (Scale.Workers > 1) so concurrent cells never share state. All
	// built-in schedulers implement it.
	CloneableScheduler = sim.CloneableScheduler
	// PostcardScheduler adapts the optimizer to the simulator.
	PostcardScheduler = sim.Postcard
	// FlowScheduler adapts the flow baselines to the simulator.
	FlowScheduler = sim.Flow
	// FlowVariant selects a flow-based baseline implementation.
	FlowVariant = sim.FlowVariant
	// RunStats summarizes one simulation run.
	RunStats = sim.RunStats
	// Scale sizes an experiment (paper scale or CI scale).
	Scale = sim.Scale
	// FigureConfig describes one evaluation figure to regenerate.
	FigureConfig = sim.FigureConfig
	// FigureResult is the regenerated data behind one figure.
	FigureResult = sim.FigureResult
	// SchedulerSummary aggregates one scheduler across runs.
	SchedulerSummary = sim.SchedulerSummary
	// SolverStatsReporter is implemented by schedulers that track
	// cumulative LP solver work (e.g. the warm-started Postcard adapter);
	// RunStats.Solver and SchedulerSummary.Solver aggregate it.
	SolverStatsReporter = sim.SolverStatsReporter
	// FastScheduler is the two-tier admission scheduler: an allocate-on-
	// arrival fast path admits files without an LP solve, and a background
	// re-optimizer republishes improved schedules between slots.
	FastScheduler = sim.Fast
)

// Admission fast-tier types.
type (
	// AdmissionConfig is the admission controller's configuration. It
	// has no settings: the search budget is fixed and the background
	// re-optimizer is always the warm path master. Pass nil.
	AdmissionConfig = admission.Config
	// AdmissionController is the allocate-on-arrival tier: admit/reject
	// decisions with provisional single-path schedules, plus the republish
	// protocol that swaps them for LP-optimal plans.
	AdmissionController = admission.Controller
	// AdmissionDecision is the outcome of one Admit call.
	AdmissionDecision = admission.Decision
	// AdmissionStats counts admission decisions and fast-tier costs.
	AdmissionStats = admission.Stats
	// AdmissionPlan is a provisional single-path schedule with its exact
	// marginal charge.
	AdmissionPlan = admission.Plan
	// Reservations is the in-memory reservation ledger the fast tier
	// allocates from: per-link per-slot capacity holds layered over a
	// charging Ledger, never metered until committed.
	Reservations = netmodel.Reservations
)

// Snapshot types: the serializable state of each stateful layer. All four
// round-trip through JSON bit-exactly, so a process restored from them
// resumes its remaining horizon with identical decisions.
type (
	// LedgerSnapshot is the committed per-link traffic history of a Ledger.
	LedgerSnapshot = netmodel.LedgerSnapshot
	// ReservationsSnapshot is the fast tier's uncommitted capacity holds.
	ReservationsSnapshot = netmodel.ReservationsSnapshot
	// SolverSnapshot is an IncrementalSolver's warm state (basis and
	// model-variable keys) plus its cumulative counters.
	SolverSnapshot = core.SolverSnapshot
	// AdmissionSnapshot is an AdmissionController's full state: the open
	// batch, its reservations, and the background solver's snapshot.
	AdmissionSnapshot = admission.ControllerSnapshot
)

// Server types: the HTTP/JSON admission daemon behind cmd/postcard-server,
// embeddable as a library.
type (
	// Server is the admission daemon state machine; Server.Handler returns
	// its HTTP mux.
	Server = server.Server
	// ServerConfig parameterizes a Server.
	ServerConfig = server.Config
	// ServerSnapshot is a Server's full serializable state.
	ServerSnapshot = server.Snapshot
	// PlanRecord is the daemon's queryable per-transfer state.
	PlanRecord = server.PlanRecord
)

// Workload types.
type (
	// WorkloadGenerator produces the files generated at each slot.
	WorkloadGenerator = workload.Generator
	// UniformWorkload is the paper's evaluation workload generator.
	UniformWorkload = workload.Uniform
	// UniformWorkloadConfig parameterizes UniformWorkload.
	UniformWorkloadConfig = workload.UniformConfig
	// DiurnalWorkloadConfig parameterizes the diurnal generator.
	DiurnalWorkloadConfig = workload.DiurnalConfig
	// PoissonWorkload is the heavy-arrival Poisson workload generator.
	PoissonWorkload = workload.Poisson
	// PoissonWorkloadConfig parameterizes PoissonWorkload.
	PoissonWorkloadConfig = workload.PoissonConfig
	// Trace is a recorded, replayable workload.
	Trace = workload.Trace
	// TraceCursor is a per-goroutine linear-time replay cursor over a
	// Trace (see Trace.Replay); concurrent replays of one immutable
	// trace must each use their own cursor.
	TraceCursor = workload.TraceCursor
)

// Statistics types.
type (
	// Summary is a mean with a 95% confidence interval.
	Summary = stats.Summary
)

// Solver status values.
type SolveStatus = lp.Status

// Solve statuses.
const (
	StatusOptimal    = lp.Optimal
	StatusInfeasible = lp.Infeasible
	StatusUnbounded  = lp.Unbounded
	StatusIterLimit  = lp.IterLimit
)

// Storage policies for Config.Storage.
const (
	StorageEverywhere    = core.StorageEverywhere
	StorageEndpointsOnly = core.StorageEndpointsOnly
	StorageNone          = core.StorageNone
)

// Pricing modes for Config.Pricing (or WithPricing).
const (
	// PricingArc is the per-arc flow formulation with delayed column
	// generation — exact and fast at paper scale.
	PricingArc = core.PricingArc
	// PricingPath is the Dantzig–Wolfe path decomposition: whole
	// source→deadline path columns priced by per-file shortest-path oracles,
	// built for 100+ datacenter overlays. Exact (certified against the arc
	// model); a volume-maximizing master of the same paths gives the
	// Infeasible verdict.
	PricingPath = core.PricingPath
)

// Flow-based baseline variants for FlowScheduler.Variant.
const (
	FlowLP       = sim.FlowLP
	FlowTwoPhase = sim.FlowTwoPhase
	FlowGreedy   = sim.FlowGreedy
	FlowDirect   = sim.FlowDirect
)

// NewNetwork creates a network with n datacenters and no links.
func NewNetwork(n int) (*Network, error) { return netmodel.NewNetwork(n) }

// Complete builds a complete directed network with per-pair prices and a
// uniform capacity in GB/slot.
func Complete(n int, price func(i, j DC) float64, capacity float64) (*Network, error) {
	return netmodel.Complete(n, price, capacity)
}

// Fig1Topology builds the paper's Fig. 1 motivating example.
func Fig1Topology() (*Network, File, error) { return netmodel.Fig1Topology() }

// Fig3Topology builds the paper's Fig. 3 worked example, with both files
// released at the given slot.
func Fig3Topology(release int) (*Network, []File, error) { return netmodel.Fig3Topology(release) }

// MaxCharging is the 100th-percentile (peak) charging scheme the paper's
// evaluation uses, over a period of the given number of slots.
func MaxCharging(periodSlots int) Charging { return netmodel.MaxCharging(periodSlots) }

// NewLedger creates an empty charging ledger for the network.
func NewLedger(nw *Network, scheme Charging) (*Ledger, error) {
	return netmodel.NewLedger(nw, scheme)
}

// MaxBulk maximizes bulk volume delivered over already-paid leftover
// bandwidth (Sec. VI, NetStitcher-style, generalized to multiple files).
func MaxBulk(ledger *Ledger, files []File, t int) (*ExtResult, error) {
	return extensions.MaxBulk(ledger, files, t)
}

// MaxUnderBudget maximizes delivered volume with the charged cost per slot
// capped at budgetPerSlot (Sec. VI).
func MaxUnderBudget(ledger *Ledger, files []File, t int, budgetPerSlot float64) (*ExtResult, error) {
	return extensions.MaxUnderBudget(ledger, files, t, budgetPerSlot)
}

// AdmitFiles greedily admits whole files under a budget and returns the
// admitted IDs with the plan.
func AdmitFiles(ledger *Ledger, files []File, t int, budgetPerSlot float64) ([]int, *ExtResult, error) {
	return extensions.AdmitFiles(ledger, files, t, budgetPerSlot)
}

// VerifySchedule re-checks a plan end to end (conservation, capacity,
// deadlines) independent of any solver.
func VerifySchedule(s *Schedule, nw *Network, files []File, cfg VerifyConfig) error {
	return schedule.Verify(s, nw, files, cfg)
}

// ErrInfeasible marks demand a Scheduler cannot fit under the residual
// capacity; the simulation engine sheds files and retries on it.
var ErrInfeasible = sim.ErrInfeasible

// Run executes one online simulation of the scheduler over the workload.
func Run(ledger *Ledger, sched Scheduler, gen WorkloadGenerator, slots int) (*RunStats, error) {
	return sim.Run(ledger, sched, gen, slots)
}

// RunFigure regenerates one of the paper's evaluation figures. With
// cfg.Scale.Workers > 1 the independent (run, scheduler) simulation cells
// execute on a worker pool and are reduced in fixed order, so the result
// is bit-identical to a sequential run at a fraction of the wall-clock
// time. See sim.RunFigure.
func RunFigure(cfg FigureConfig) (*FigureResult, error) { return sim.RunFigure(cfg) }

// PaperScale is the exact evaluation scale of Sec. VII.
func PaperScale() Scale { return sim.PaperScale() }

// CIScale is the reduced scale that preserves the paper's regimes.
func CIScale() Scale { return sim.CIScale() }

// DCScale is a fixed-workload scale for solver scaling studies: the file
// stream stays constant while the overlay grows to dcs datacenters, so
// solve-time differences isolate model size (see the PR 9 figure runs).
func DCScale(dcs int) Scale { return sim.DCScale(dcs) }

// EvalSettings returns the paper's four evaluation settings (Figs. 4-7).
func EvalSettings() []EvalSetting { return netmodel.EvalSettings() }

// SettingByFigure looks up the evaluation setting of a paper figure.
func SettingByFigure(fig int) (EvalSetting, error) { return netmodel.SettingByFigure(fig) }

// NewUniformWorkload creates the paper's uniform workload generator.
func NewUniformWorkload(cfg UniformWorkloadConfig) (*UniformWorkload, error) {
	return workload.NewUniform(cfg)
}

// NewPoissonWorkload creates a Poisson heavy-arrival workload generator.
func NewPoissonWorkload(cfg PoissonWorkloadConfig) (*PoissonWorkload, error) {
	return workload.NewPoisson(cfg)
}

// NewAdmissionController creates an allocate-on-arrival admission tier
// over the ledger. AdmissionConfig has no settings; cfg may be nil.
func NewAdmissionController(ledger *Ledger, cfg *AdmissionConfig) (*AdmissionController, error) {
	return admission.NewController(ledger, cfg)
}

// NewReservations creates an empty reservation view over the ledger.
func NewReservations(ledger *Ledger) *Reservations {
	return netmodel.NewReservations(ledger)
}

// LedgerFromSnapshot rebuilds a ledger over nw from a snapshot taken with
// Ledger.Snapshot, validating every volume against the network.
func LedgerFromSnapshot(nw *Network, snap *LedgerSnapshot) (*Ledger, error) {
	return netmodel.LedgerFromSnapshot(nw, snap)
}

// RestoreAdmissionController rebuilds an admission controller over the
// ledger from a snapshot taken with AdmissionController.Snapshot: the open
// batch, its reservations, and the background solver's warm basis resume
// exactly where the snapshot left off. A snapshot whose solver state was
// written by the arc model (an older build) restores that state cold.
func RestoreAdmissionController(ledger *Ledger, cfg *AdmissionConfig, snap *AdmissionSnapshot) (*AdmissionController, error) {
	return admission.RestoreController(ledger, cfg, snap)
}

// NewServer builds the admission daemon over a fresh ledger. Serve its
// HTTP surface with http.Serve(listener, srv.Handler()).
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// RestoreServer rebuilds a daemon from a snapshot taken with
// Server.Snapshot; the restored instance resumes the remaining horizon
// bit-identically to the uninterrupted run. cfg.Network is ignored — the
// topology is rebuilt from the snapshot.
func RestoreServer(cfg ServerConfig, snap *ServerSnapshot) (*Server, error) {
	return server.Restore(cfg, snap)
}

// NewDiurnalWorkload creates a day/night-modulated workload generator.
func NewDiurnalWorkload(cfg DiurnalWorkloadConfig) (WorkloadGenerator, error) {
	return workload.NewDiurnal(cfg)
}

// RecordTrace drains a generator into a replayable trace.
func RecordTrace(gen WorkloadGenerator, slots int) *Trace { return workload.Record(gen, slots) }

// ReadTrace deserializes a trace written with Trace.WriteJSON.
func ReadTrace(r io.Reader) (*Trace, error) { return workload.ReadTrace(r) }

// ReadInstance decodes a JSON problem instance.
func ReadInstance(r io.Reader) (*Instance, error) { return netmodel.ReadInstance(r) }

// InstanceOf captures a network and file set as a serializable Instance.
func InstanceOf(nw *Network, files []File) *Instance { return netmodel.InstanceOf(nw, files) }

// UniformPrices returns the paper's evaluation pricing: per-link prices
// drawn uniformly from [1, 10], deterministic in the seed.
func UniformPrices(seed int64) func(i, j DC) float64 { return workload.UniformPrices(seed) }

// TimeExpandedDOT renders the time-expanded graph of nw over horizon slots
// starting at slot start, in Graphviz DOT format.
func TimeExpandedDOT(nw *Network, start, horizon int) (string, error) {
	tg, err := timegraph.Build(nw, start, horizon)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := tg.DOT(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}
