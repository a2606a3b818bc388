package admission

import (
	"fmt"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
)

// maxExpansions bounds the partial paths the best-first search may pop per
// admission before giving up (a non-exhaustive rejection). The frontier
// holds simple-path prefixes, so on the evaluation networks (complete graphs
// of 8-20 datacenters, deadlines of a few slots) the search drains far below
// this bound and every rejection is exhaustive.
const maxExpansions = 4096

// Config tunes the admission tier.
type Config struct {
	// Solver configures the background re-optimizer's core.Solver; nil
	// selects the optimizer defaults.
	Solver *core.Config
}

// Stats counts the admission tier's cumulative work. It is declared in core
// (see core.AdmissionStats), so the solver statistics of the simulation
// adapter can embed the same counters.
type Stats = core.AdmissionStats

// Decision is the outcome of one Admit call.
type Decision struct {
	// Admitted reports whether a feasible placement was found and reserved.
	Admitted bool
	// Plan is the provisional placement; nil when rejected.
	Plan *Plan
	// Expansions counts partial paths the search popped.
	Expansions int
	// Exhaustive reports whether a rejection covered the entire simple-path
	// space up to the hop bound (always true for admissions).
	Exhaustive bool
}

// Controller is the two-tier admission control point over one ledger: the
// fast tier answers Admit per arriving file, reserving capacity in a
// Reservations view (never in the ledger itself); Republish re-solves the
// admitted batch with the incremental LP solver and atomically swaps the
// reservations to the improved plan; TakePlan hands the batch's final
// schedule to the caller for commitment. A Controller is not safe for
// concurrent use: callers serialize every method behind one lock. The one
// thing that may run outside that lock is RepublishJob.Solve, under the
// conditions stated there — which is how a daemon keeps answering Admit
// while the LP runs.
type Controller struct {
	cfg    Config
	res    *netmodel.Reservations
	q100   bool
	solver *core.Solver

	slot      int // current batch's slot, -1 when no batch is open
	files     []netmodel.File
	plan      *schedule.Schedule
	batchCost float64 // provisional cost/slot delta of the open batch
	// gen is the batch generation: it moves whenever the open batch's file
	// set, or anything else its LP reads, changes, which is what makes an
	// outstanding RepublishJob stale. settled: see Settled.
	gen     uint64
	settled bool

	stats Stats
	// solverStats is the solver's counter set as of the last finished job;
	// the live solver may be mid-solve outside the caller's lock.
	solverStats core.SolveStats
}

// NewController creates an admission controller over the ledger.
func NewController(ledger *netmodel.Ledger, cfg *Config) (*Controller, error) {
	if ledger == nil {
		return nil, fmt.Errorf("admission: nil ledger")
	}
	c := &Controller{
		res:  netmodel.NewReservations(ledger),
		q100: ledger.Scheme().Q >= 100,
		slot: -1,
	}
	if cfg != nil {
		c.cfg = *cfg
	}
	return c, nil
}

// Reservations exposes the live reservation view (for inspection; callers
// must not mutate it).
func (c *Controller) Reservations() *netmodel.Reservations { return c.res }

// Stats returns the cumulative admission counters.
func (c *Controller) Stats() Stats { return c.stats }

// SolverStats returns the background re-optimizer's cumulative LP counters
// as of the last finished republish (the zero value when none has run yet).
func (c *Controller) SolverStats() core.SolveStats { return c.solverStats }

// Pending reports the files admitted into the currently open batch.
func (c *Controller) Pending() []netmodel.File {
	return append([]netmodel.File(nil), c.files...)
}

// PendingCount reports how many files the open batch holds, without the
// copy Pending makes.
func (c *Controller) PendingCount() int { return len(c.files) }

// BatchPlan returns the open batch's current merged schedule — the
// provisional single-path plans, or the LP plan after a successful
// Republish — as a sorted action list. Empty when no batch is open.
func (c *Controller) BatchPlan() []schedule.Action {
	if c.plan == nil {
		return nil
	}
	return c.plan.Actions()
}

// Admit answers the fast-path admission decision for one arriving file at
// slot now: it searches for the cheapest feasible single-path placement
// under the unreserved capacities (headroom-only under q < 100) and, when
// one exists, reserves its slot-by-slot capacity and adds the file to the
// open batch. A rejection reserves nothing and leaves the batch intact. A
// file whose ID is already in the open batch is an error. Batches are per
// slot: the previous slot's batch must have been taken (TakePlan) or rolled
// back before admitting into a new slot.
func (c *Controller) Admit(f netmodel.File, now int) (Decision, error) {
	if _, err := netmodel.CheckBatch(c.res.Ledger().Network(), []netmodel.File{f}, now); err != nil {
		return Decision{}, err
	}
	if c.slot != now {
		if len(c.files) > 0 {
			return Decision{}, fmt.Errorf("admission: batch for slot %d still open at slot %d", c.slot, now)
		}
		c.slot = now
	}
	for _, g := range c.files {
		if g.ID == f.ID {
			return Decision{}, fmt.Errorf("admission: file ID %d is already in the open batch", f.ID)
		}
	}
	plan, expansions, exhaustive := planFile(c.res, f, c.q100)
	if plan == nil {
		c.stats.Rejects++
		return Decision{Expansions: expansions, Exhaustive: exhaustive}, nil
	}
	if err := c.reserveSchedule(plan.Schedule); err != nil {
		return Decision{}, fmt.Errorf("admission: reserving plan for file %d: %w", f.ID, err)
	}
	c.files = append(c.files, f)
	if c.plan == nil {
		c.plan = &schedule.Schedule{}
	}
	mergeSchedule(c.plan, plan.Schedule)
	c.batchCost += plan.ChargeDelta
	c.Invalidate()
	c.stats.Admits++
	return Decision{Admitted: true, Plan: plan, Expansions: expansions, Exhaustive: true}, nil
}

// RepublishJob is one re-optimization of the open batch, begun by
// BeginRepublish: an immutable copy of the batch's slot, files and
// generation, plus — after Solve — the LP's answer. The split exists so a
// concurrent caller can keep admitting while the LP runs: BeginRepublish and
// FinishRepublish touch controller state and need the caller's lock, Solve
// touches none of it. A job may be solved without the controller's lock only
// while the ledger and the network's prices are not written, and while no
// other job of the same controller is being solved (jobs share the
// controller's warm core.Solver); Admit, BatchPlan, Stats and the other
// readers may run meanwhile.
type RepublishJob struct {
	c      *Controller
	solver *core.Solver
	ledger *netmodel.Ledger
	slot   int
	files  []netmodel.File
	gen    uint64

	solved bool
	res    *core.Result
	err    error
	stats  core.SolveStats
}

// BeginRepublish captures the open batch of slot now as a job for Solve and
// FinishRepublish. It fails when no batch is open or the batch belongs to
// another slot.
func (c *Controller) BeginRepublish(now int) (*RepublishJob, error) {
	if len(c.files) == 0 {
		return nil, fmt.Errorf("admission: republish at slot %d with no open batch", now)
	}
	if now != c.slot {
		return nil, fmt.Errorf("admission: republish at slot %d for batch of slot %d", now, c.slot)
	}
	if c.solver == nil {
		c.solver = core.NewSolver(c.cfg.Solver)
	}
	return &RepublishJob{
		c:      c,
		solver: c.solver,
		ledger: c.res.Ledger(),
		slot:   now,
		files:  append([]netmodel.File(nil), c.files...),
		gen:    c.gen,
	}, nil
}

// Solve runs the job's LP through the controller's warm solver. It prices
// against the ledger — which never contains reservations — so the whole
// batch is re-planned from the committed state. See RepublishJob for when it
// may run without the controller's lock.
func (j *RepublishJob) Solve() {
	j.res, j.err = j.solver.Solve(j.ledger, j.files, j.slot)
	j.stats = j.solver.Stats()
	j.solved = true
}

// FinishRepublish applies a solved job: when the LP improves on the
// provisional plans, the batch's reservations and schedule are atomically
// swapped to the LP's, and swapped reports true. The batch's provisional
// plans prove the LP feasible, so a non-optimal status is defensive: the
// fast plan is kept and no error is returned.
//
// A stale job never swaps: when the batch changed since BeginRepublish (an
// admission, TakePlan, Rollback or Invalidate), or the job was begun by
// another controller, its answer — a solve error included — is dropped.
// Otherwise the batch is settled afterwards, unless the solve failed.
//
// The swap is failure-atomic: the reservation state is restored to the
// pre-swap buckets whenever any step fails, so c.plan and the live
// reservations never disagree. Without that restore, a swap that released
// the provisional reservations but could not reserve the LP plan (e.g. a
// foreign reservation was placed on the view after Admit) left the
// controller pointing at a plan whose reservations were already freed —
// and the server drain path's Rollback/TakePlan then double-released them.
func (c *Controller) FinishRepublish(job *RepublishJob) (swapped bool, err error) {
	if !job.solved {
		return false, fmt.Errorf("admission: finishing a republish job that was not solved")
	}
	if job.c != c {
		return false, nil
	}
	if job.stats.Solves > c.solverStats.Solves {
		// Jobs may finish in another order than they were solved; the
		// published counters never step back.
		c.solverStats = job.stats
	}
	if job.gen != c.gen {
		return false, nil
	}
	if job.err != nil {
		return false, fmt.Errorf("admission: republish solve: %w", job.err)
	}
	res := job.res
	if res.Status != lp.Optimal {
		c.settled = true
		return false, nil
	}
	lpDelta := res.CostPerSlot - c.res.Ledger().CostPerSlot()
	saved := c.res.Clone()
	if err := c.releaseSchedule(c.plan); err != nil {
		c.restoreReservations(saved)
		return false, fmt.Errorf("admission: releasing fast-tier reservations: %w", err)
	}
	if err := c.reserveSchedule(res.Schedule); err != nil {
		// The LP plan no longer fits the reservation view (it was solved
		// against the ledger alone). Restore the provisional reservations
		// and keep the fast plan — the same defensive outcome as a
		// non-optimal solve.
		c.restoreReservations(saved)
		c.settled = true
		return false, nil
	}
	c.stats.Republishes++
	c.stats.RepublishDelta += c.batchCost - lpDelta
	c.batchCost = lpDelta
	c.plan = res.Schedule
	c.settled = true
	return true, nil
}

// Republish re-solves the open batch with the incremental LP solver and
// swaps it to the LP's plan: BeginRepublish, Solve and FinishRepublish in
// one synchronous call, for callers with nothing to do meanwhile. An empty
// batch is a no-op.
func (c *Controller) Republish(now int) error {
	if len(c.files) == 0 {
		return nil
	}
	job, err := c.BeginRepublish(now)
	if err != nil {
		return err
	}
	job.Solve()
	_, err = c.FinishRepublish(job)
	return err
}

// Settled reports whether re-solving the open batch would be wasted work:
// the batch is empty, or the LP's verdict on exactly its current files —
// swapped in, or defensively declined — is already applied. Admit, TakePlan,
// Rollback and Invalidate unsettle it.
func (c *Controller) Settled() bool { return len(c.files) == 0 || c.settled }

// Invalidate tells the controller that something a solve reads besides the
// batch changed — the network's prices were reloaded: the open batch is
// unsettled and every outstanding RepublishJob becomes stale.
func (c *Controller) Invalidate() {
	c.gen++
	c.settled = false
}

// TakePlan closes the open batch: reservations are released (the caller is
// about to commit the schedule to the ledger, which supersedes them) and
// the batch's schedule and files are returned. The returned schedule is
// never nil. After a Republish the released reservations are the swapped
// LP plan's, which by Republish's atomicity always match c.plan; a release
// failure restores the pre-release buckets and keeps the batch open.
func (c *Controller) TakePlan() (*schedule.Schedule, []netmodel.File, error) {
	plan, files := c.plan, c.files
	if plan == nil {
		plan = &schedule.Schedule{}
	}
	saved := c.res.Clone()
	if err := c.releaseSchedule(c.plan); err != nil {
		c.restoreReservations(saved)
		return nil, nil, fmt.Errorf("admission: closing batch: %w", err)
	}
	c.stats.FastCost += c.batchCost
	c.plan, c.files, c.batchCost = nil, nil, 0
	c.Invalidate()
	return plan, files, nil
}

// Rollback discards the open batch, releasing all its reservations — the
// swapped LP plan's after a Republish, the provisional single-path ones
// before. The admit/reject counters keep the decisions; the discarded
// batch contributes nothing to FastCost. A release failure restores the
// pre-release buckets and keeps the batch open, exactly like TakePlan.
func (c *Controller) Rollback() error {
	saved := c.res.Clone()
	if err := c.releaseSchedule(c.plan); err != nil {
		c.restoreReservations(saved)
		return fmt.Errorf("admission: rollback: %w", err)
	}
	c.plan, c.files, c.batchCost = nil, nil, 0
	c.Invalidate()
	return nil
}

// restoreReservations rolls the live reservation view back to a saved
// clone. CopyFrom cannot fail here: the clone shares c.res's ledger.
func (c *Controller) restoreReservations(saved *netmodel.Reservations) {
	if err := c.res.CopyFrom(saved); err != nil {
		panic("admission: restoring reservation snapshot: " + err.Error())
	}
}

// reserveSchedule reserves every transfer action of s; on failure the
// already-reserved prefix is released so a failed reserve changes nothing.
func (c *Controller) reserveSchedule(s *schedule.Schedule) error {
	if s == nil {
		return nil
	}
	actions := s.Actions()
	for k, a := range actions {
		if a.IsHold() {
			continue
		}
		if err := c.res.Reserve(a.From, a.To, a.Slot, a.Amount); err != nil {
			for _, b := range actions[:k] {
				if b.IsHold() {
					continue
				}
				_ = c.res.Release(b.From, b.To, b.Slot, b.Amount)
			}
			return err
		}
	}
	return nil
}

// releaseSchedule releases every transfer action of s.
func (c *Controller) releaseSchedule(s *schedule.Schedule) error {
	if s == nil {
		return nil
	}
	for _, a := range s.Actions() {
		if a.IsHold() {
			continue
		}
		if err := c.res.Release(a.From, a.To, a.Slot, a.Amount); err != nil {
			return err
		}
	}
	return nil
}

// mergeSchedule appends every action of src to dst.
func mergeSchedule(dst, src *schedule.Schedule) {
	for _, a := range src.Actions() {
		dst.Add(a)
	}
}
