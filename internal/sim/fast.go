package sim

import (
	"fmt"

	"github.com/interdc/postcard/internal/admission"
	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
	"github.com/interdc/postcard/internal/telemetry"
)

// Fast is the Scheduler adapter for the two-tier admission scheduler: each
// file of a slot's batch is admitted (or rejected) by the allocate-on-
// arrival fast path, then the background re-optimizer republishes the
// LP-optimal plan for the batch before it is committed. With NoRepublish
// the provisional fast-tier plans are committed as-is — the pure heuristic
// whose optimality gap TestFastTierGapCIScale pins.
type Fast struct {
	// NoRepublish skips the background LP re-optimization, committing the
	// fast tier's provisional single-path plans unchanged.
	NoRepublish bool

	ledger *netmodel.Ledger // ledger the live controller is bound to
	ctrl   *admission.Controller
	base   core.SolveStats // counters folded in from retired controllers
}

// Name implements Scheduler: "postcard-fast", or "postcard-fast-only" with
// NoRepublish.
func (p *Fast) Name() string {
	if p.NoRepublish {
		return "postcard-fast-only"
	}
	return "postcard-fast"
}

// CloneScheduler implements CloneableScheduler: the copy starts with a fresh
// controller, so cloned cells run bit-identically to a sequentially reused
// instance (every run binds a new ledger, which retires the previous
// controller anyway).
func (p *Fast) CloneScheduler() Scheduler {
	return &Fast{NoRepublish: p.NoRepublish}
}

// ctrlStats maps the live controller's cumulative admission and LP counters
// into one SolveStats.
func (p *Fast) ctrlStats() core.SolveStats {
	st := p.ctrl.SolverStats()
	st.AdmissionStats = p.ctrl.Stats()
	return st
}

// Schedule implements Scheduler: every file is admitted through the fast
// path (any rejection rolls the batch back and reports ErrInfeasible, so
// the engine's shedding policy stays in charge of drops), the batch is
// republished unless NoRepublish, and the final plan is handed back for
// the engine to commit.
func (p *Fast) Schedule(ledger *netmodel.Ledger, files []netmodel.File, slot int) (*schedule.Schedule, error) {
	if p.ctrl == nil || p.ledger != ledger {
		if p.ctrl != nil {
			telemetry.Add(&p.base, p.ctrlStats())
		}
		ctrl, err := admission.NewController(ledger, nil)
		if err != nil {
			return nil, err
		}
		p.ctrl, p.ledger = ctrl, ledger
	}
	for _, f := range files {
		dec, err := p.ctrl.Admit(f, slot)
		if err != nil {
			return nil, err
		}
		if !dec.Admitted {
			if err := p.ctrl.Rollback(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%w: fast tier rejected file %d (%d expansions, exhaustive=%v)",
				ErrInfeasible, f.ID, dec.Expansions, dec.Exhaustive)
		}
	}
	if !p.NoRepublish {
		if err := p.ctrl.Republish(slot); err != nil {
			return nil, err
		}
	}
	plan, _, err := p.ctrl.TakePlan()
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// SolverStats implements SolverStatsReporter: the admission counters of
// every controller this adapter has driven (one per ledger) plus the
// background re-optimizer's LP work, through the same surface the LP
// schedulers report on.
func (p *Fast) SolverStats() core.SolveStats {
	st := p.base
	if p.ctrl != nil {
		telemetry.Add(&st, p.ctrlStats())
	}
	return st
}
