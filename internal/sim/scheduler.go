// Package sim runs the paper's online time-slotted simulation: at every
// slot, newly generated files are handed to a scheduler, which commits a
// routing-and-scheduling plan to a shared charging ledger. The package
// provides the scheduler adapters for Postcard and every baseline, the
// per-run engine, and the multi-run experiment driver that regenerates the
// evaluation figures (Sec. VII).
package sim

import (
	"errors"
	"fmt"
	"sort"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/flowbased"
	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
	"github.com/interdc/postcard/internal/telemetry"
)

// ErrInfeasible marks demand that cannot be scheduled under the residual
// capacities. The engine reacts by shedding files (see Run).
var ErrInfeasible = errors.New("sim: demand infeasible under residual capacity")

// Scheduler decides, at one slot, how the newly generated files are routed
// and scheduled given everything already committed in the ledger. The
// returned schedule must not have been applied to the ledger yet.
type Scheduler interface {
	// Name identifies the scheduler in experiment output.
	Name() string
	// Schedule plans the given files at slot. Implementations must wrap
	// ErrInfeasible when the demand cannot fit.
	Schedule(ledger *netmodel.Ledger, files []netmodel.File, slot int) (*schedule.Schedule, error)
}

// CloneableScheduler is implemented by schedulers that can produce an
// independent copy of themselves. The parallel experiment driver clones
// one scheduler instance per (run, scheduler) cell so no two goroutines
// ever share scheduler state; schedulers that do not implement it force
// RunFigure to fall back to sequential execution (see RunFigure).
type CloneableScheduler interface {
	Scheduler
	// CloneScheduler returns a scheduler equivalent to the receiver that
	// shares no mutable state with it.
	CloneScheduler() Scheduler
}

// SolverStatsReporter is implemented by schedulers that track cumulative LP
// solver work. The engine snapshots the counters around each run and stores
// the difference in RunStats.Solver; the experiment driver then sums the
// per-run deltas in fixed order, so the aggregated figures stay bit
// identical for any worker count.
type SolverStatsReporter interface {
	// SolverStats returns the cumulative counters since the scheduler was
	// created.
	SolverStats() core.SolveStats
}

// Postcard is the Scheduler adapter for the paper's optimizer.
type Postcard struct {
	// Config tunes the optimizer; nil selects defaults.
	Config *core.Config
	// Label overrides Name; defaults to "postcard" ("postcard-warm" when
	// WarmStart is set).
	Label string
	// WarmStart keeps one incremental core.Solver across slots: consecutive
	// slots reuse the time-expanded graph skeleton and warm-start each LP
	// from the previous slot's basis. Every slot reaches the cold path's
	// optimal objective, but the plans may differ, so run costs drift
	// apart; see core.Solver.
	WarmStart bool

	solver *core.Solver    // lazily created when WarmStart is set
	stats  core.SolveStats // cold-path counters (WarmStart uses solver.Stats)
}

// Name implements Scheduler.
func (p *Postcard) Name() string {
	if p.Label != "" {
		return p.Label
	}
	if p.WarmStart {
		return "postcard-warm"
	}
	return "postcard"
}

// CloneScheduler implements CloneableScheduler: the copy deep-copies the
// optimizer configuration so concurrent cells can never observe each other
// through a shared Config pointer. The clone
// starts with a fresh (empty) solver cache; since core.Solver resets itself
// whenever the network changes identity — and every simulation cell builds
// its own network — a cloned warm scheduler produces bit-identical runs to
// a sequentially reused one.
func (p *Postcard) CloneScheduler() Scheduler {
	out := &Postcard{Label: p.Label, WarmStart: p.WarmStart}
	if p.Config != nil {
		cfg := *p.Config
		out.Config = &cfg
	}
	return out
}

// Schedule implements Scheduler.
func (p *Postcard) Schedule(ledger *netmodel.Ledger, files []netmodel.File, slot int) (*schedule.Schedule, error) {
	var (
		res *core.Result
		err error
	)
	if p.WarmStart {
		if p.solver == nil {
			p.solver = core.NewSolver(p.Config)
		}
		res, err = p.solver.Solve(ledger, files, slot)
	} else {
		// A fresh Solver per slot is core.Solve with its counters kept.
		sv := core.NewSolver(p.Config)
		res, err = sv.Solve(ledger, files, slot)
		telemetry.Add(&p.stats, sv.Stats())
	}
	if err != nil {
		var ue *core.UnroutableError
		if errors.As(err, &ue) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("%w: postcard LP status %v", ErrInfeasible, res.Status)
	}
	return res.Schedule, nil
}

// SolverStats implements SolverStatsReporter. With WarmStart the counters
// are the incremental core.Solver's; otherwise they total the per-slot
// fresh Solvers' (WarmSolves and GraphReuses stay zero by construction),
// so cold-versus-warm iteration totals are comparable through one surface.
func (p *Postcard) SolverStats() core.SolveStats {
	if p.solver != nil {
		return p.solver.Stats()
	}
	return p.stats
}

// FlowVariant selects a flow-based baseline implementation.
type FlowVariant int

// Flow-based scheduler variants.
const (
	// FlowLP is the optimal single-LP flow model (used in the figures).
	FlowLP FlowVariant = iota + 1
	// FlowTwoPhase is the paper's literal two-phase decomposition.
	FlowTwoPhase
	// FlowGreedy is the cheapest-available-path heuristic.
	FlowGreedy
	// FlowDirect sends every file on its direct link (no routing at all).
	FlowDirect
)

// String names the variant.
func (v FlowVariant) String() string {
	switch v {
	case FlowLP:
		return "flow-based"
	case FlowTwoPhase:
		return "flow-two-phase"
	case FlowGreedy:
		return "flow-greedy"
	case FlowDirect:
		return "direct"
	default:
		return fmt.Sprintf("FlowVariant(%d)", int(v))
	}
}

// Flow is the Scheduler adapter for the flow-based baselines.
type Flow struct {
	Variant FlowVariant
}

// Name implements Scheduler.
func (f *Flow) Name() string { return f.Variant.String() }

// CloneScheduler implements CloneableScheduler. A Flow holds no state
// beyond its variant.
func (f *Flow) CloneScheduler() Scheduler { return &Flow{Variant: f.Variant} }

// Schedule implements Scheduler.
func (f *Flow) Schedule(ledger *netmodel.Ledger, files []netmodel.File, slot int) (*schedule.Schedule, error) {
	var (
		res *flowbased.Result
		err error
	)
	switch f.Variant {
	case FlowLP:
		res, err = flowbased.Solve(ledger, files, slot)
	case FlowTwoPhase:
		res, err = flowbased.SolveTwoPhase(ledger, files, slot)
	case FlowGreedy:
		res, err = flowbased.SolveGreedy(ledger, files, slot)
	case FlowDirect:
		res, err = flowbased.Direct(ledger, files, slot)
	default:
		return nil, fmt.Errorf("sim: unknown flow variant %d", int(f.Variant))
	}
	if err != nil {
		var ue *flowbased.UnroutedError
		if errors.As(err, &ue) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("%w: %s LP status %v", ErrInfeasible, f.Name(), res.Status)
	}
	return res.Schedule, nil
}

// shedOrder returns files sorted by descending desired rate, the order in
// which the engine sheds demand when a slot is infeasible: the most
// bandwidth-hungry file is dropped first.
func shedOrder(files []netmodel.File) []netmodel.File {
	out := make([]netmodel.File, len(files))
	copy(out, files)
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].DesiredRate(), out[j].DesiredRate()
		if ri != rj {
			return ri > rj
		}
		return out[i].ID < out[j].ID
	})
	return out
}
