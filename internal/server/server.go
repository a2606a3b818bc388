// Package server implements the postcard-server daemon: an HTTP/JSON
// control plane over the two-tier admission pipeline. It decomposes into
// three pieces sharing one state machine behind two locks (see Server: the
// LP never runs under the lock admissions take):
//
//   - the controller front end (POST /v1/transfers) answers admit/reject
//     synchronously from the fast tier, returning the provisional plan or
//     the reject certificate;
//   - the republisher re-solves the open batch through the warm
//     incremental LP in the background and atomically swaps the batch's
//     plan when the LP improves it — unless the batch changed while the LP
//     ran, in which case the answer is dropped and the batch solved again;
//   - the telemetry/plan surface (GET /v1/plans/{id}, GET /v1/status,
//     GET /metrics) exposes per-file schedules and the full solver and
//     admission counter set.
//
// A slot clock (or explicit POST /v1/slots/advance) closes each slot's
// batch: the final plan is committed to the charging ledger and the per-file
// records flip from provisional to committed. Close drains the open batch
// and optionally snapshots the full state to disk; Restore resumes a
// snapshotted server bit-identically (see snapshot.go).
package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/interdc/postcard/internal/admission"
	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
)

// Config parameterizes a Server.
type Config struct {
	// Network is the topology and pricing the server schedules over.
	Network *netmodel.Network
	// Charging is the percentile charging scheme of the ledger.
	Charging netmodel.Charging
	// SlotEvery advances the slot clock automatically at this period; 0
	// leaves the clock manual (POST /v1/slots/advance only).
	SlotEvery time.Duration
	// SnapshotPath, when non-empty, is where Close writes the final state
	// snapshot (and where POST /v1/snapshot writes on demand).
	SnapshotPath string
	// DrainRollback makes Close discard the open batch via Rollback
	// instead of committing it through TakePlan.
	DrainRollback bool
	// NoRepublish disables the LP republisher entirely; batches commit
	// their provisional fast-tier plans unchanged.
	NoRepublish bool
	// RepublishOnCommitOnly restricts the republisher to the slot-commit
	// path: no eager background re-solves between admissions. The commit
	// pipeline then performs exactly one LP solve per non-empty slot —
	// the same sequence as the postcard-fast simulation scheduler — which
	// makes the counter set bit-comparable to a sequential run (the CI
	// smoke diff relies on this).
	RepublishOnCommitOnly bool
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// PlanStatus is the lifecycle state of one admitted transfer.
type PlanStatus string

const (
	// StatusProvisional marks a transfer admitted into the still-open
	// batch; its plan may improve when the republisher runs.
	StatusProvisional PlanStatus = "provisional"
	// StatusCommitted marks a transfer whose slot has closed; its plan is
	// final and recorded in the charging ledger.
	StatusCommitted PlanStatus = "committed"
)

// PlanRecord is the queryable per-transfer state.
type PlanRecord struct {
	FileID      int               `json:"file_id"`
	File        netmodel.File     `json:"file"`
	Status      PlanStatus        `json:"status"`
	Slot        int               `json:"slot"` // admission slot
	ChargeDelta float64           `json:"charge_delta"`
	Path        []netmodel.DC     `json:"path,omitempty"`
	Actions     []schedule.Action `json:"actions,omitempty"`
}

// Server is the daemon state machine; safe for concurrent use by the HTTP
// handlers, the republisher, and the slot clock. Two locks, taken in the
// order solveMu, then mu:
//
//   - mu guards every field below it and is held only for bookkeeping:
//     Admit, PlanByID and Status take nothing else, so they never wait for
//     an LP solve.
//   - solveMu owns the controller's LP solver and what a solve reads
//     without mu: the ledger's volumes and the network's prices. Whoever
//     solves (the republisher, AdvanceSlot, Close) or touches those
//     (ReloadPricing, Snapshot, WriteSnapshot) holds it, so at most one
//     solve runs at a time. Ledger and prices are written under both locks,
//     since Admit reads them under mu.
//
// A solve is three steps (see admission.RepublishJob): begin under mu,
// Solve with mu released, finish under mu. A job whose batch changed in
// between is stale and never swaps.
type Server struct {
	cfg Config

	solveMu sync.Mutex

	mu     sync.Mutex
	nw     *netmodel.Network
	ledger *netmodel.Ledger
	ctrl   *admission.Controller
	slot   int
	nextID int
	plans  map[int]*PlanRecord
	closed bool

	slotsAdvanced int // lifetime slot commits (restarts included)
	reloads       int // pricing reloads applied

	// republishing is true while the republisher goroutine runs; it keeps
	// solving until the batch is settled, so admissions meanwhile need no
	// goroutine of their own. Close waits for it on republisher.
	republishing bool
	republisher  sync.WaitGroup

	clockStop chan struct{}
	clockDone chan struct{}
}

// New builds a server over a fresh ledger.
func New(cfg Config) (*Server, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("server: nil network")
	}
	ledger, err := netmodel.NewLedger(cfg.Network, cfg.Charging)
	if err != nil {
		return nil, err
	}
	ctrl, err := admission.NewController(ledger, nil)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		nw:     cfg.Network,
		ledger: ledger,
		ctrl:   ctrl,
		nextID: 1,
		plans:  make(map[int]*PlanRecord),
	}
	s.startClock()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) startClock() {
	if s.cfg.SlotEvery <= 0 {
		return
	}
	s.clockStop = make(chan struct{})
	s.clockDone = make(chan struct{})
	go func() {
		defer close(s.clockDone)
		t := time.NewTicker(s.cfg.SlotEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if _, err := s.AdvanceSlot(); err != nil {
					s.logf("slot clock: %v", err)
				}
			case <-s.clockStop:
				return
			}
		}
	}()
}

// TransferRequest is the body of POST /v1/transfers.
type TransferRequest struct {
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	SizeGB   float64 `json:"size_gb"`
	Deadline int     `json:"deadline"`
	// Release is the slot the file becomes available; values below the
	// current slot (including the zero value) admit at the current slot.
	Release int `json:"release"`
}

// TransferResponse is the synchronous admission answer.
type TransferResponse struct {
	ID       int  `json:"id"`
	Admitted bool `json:"admitted"`
	Slot     int  `json:"slot"`
	// Plan is the provisional fast-tier plan; nil when rejected. The
	// background republisher may improve it before the slot commits —
	// GET /v1/plans/{id} always shows the current plan.
	Plan *PlanRecord `json:"plan,omitempty"`
	// Expansions and Exhaustive form the reject certificate: a rejection
	// with Exhaustive true proved no feasible single path exists under the
	// current reservations; false means the search hit its expansion
	// budget first.
	Expansions int  `json:"expansions"`
	Exhaustive bool `json:"exhaustive"`
}

// Admit runs the fast-path admission decision for one transfer request at
// the current slot and, on admission, schedules a background republish of
// the open batch.
func (s *Server) Admit(req TransferRequest) (*TransferResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	release := req.Release
	if release < s.slot {
		release = s.slot
	}
	f := netmodel.File{
		ID:       s.nextID,
		Src:      netmodel.DC(req.Src),
		Dst:      netmodel.DC(req.Dst),
		Size:     req.SizeGB,
		Deadline: req.Deadline,
		Release:  release,
	}
	if err := f.Validate(s.nw); err != nil {
		return nil, err
	}
	// release was clamped to s.slot above and Validate guarantees
	// Deadline >= 1, so neither side of the comparison overflows.
	if release-s.slot > maxHorizon-f.Deadline {
		return nil, fmt.Errorf("server: transfer ends %d slots past release %d, beyond the %d-slot horizon from slot %d",
			f.Deadline, release, maxHorizon, s.slot)
	}
	dec, err := s.ctrl.Admit(f, s.slot)
	if err != nil {
		return nil, err
	}
	s.nextID++
	resp := &TransferResponse{
		ID:         f.ID,
		Admitted:   dec.Admitted,
		Slot:       s.slot,
		Expansions: dec.Expansions,
		Exhaustive: dec.Exhaustive,
	}
	if !dec.Admitted {
		return resp, nil
	}
	rec := &PlanRecord{
		FileID:      f.ID,
		File:        f,
		Status:      StatusProvisional,
		Slot:        s.slot,
		ChargeDelta: dec.Plan.ChargeDelta,
		Path:        dec.Plan.Path,
		Actions:     dec.Plan.Schedule.Actions(),
	}
	s.plans[f.ID] = rec
	// The response carries a copy: the live record is mutated under the
	// lock by the republisher, while the handler marshals the response
	// after the lock is released.
	resp.Plan = copyRecord(rec)
	s.scheduleRepublishLocked()
	return resp, nil
}

func copyRecord(rec *PlanRecord) *PlanRecord {
	cp := *rec
	cp.Actions = append([]schedule.Action(nil), rec.Actions...)
	cp.Path = append([]netmodel.DC(nil), rec.Path...)
	return &cp
}

// scheduleRepublishLocked makes sure the republisher goroutine is running.
// Admissions arriving during its solve make that job stale; the goroutine
// sees the batch unsettled at finish and solves the grown batch next, so at
// most one solve is in flight and one is owed.
func (s *Server) scheduleRepublishLocked() {
	if s.cfg.NoRepublish || s.cfg.RepublishOnCommitOnly || s.republishing {
		return
	}
	s.republishing = true
	s.republisher.Add(1)
	go func() {
		defer s.republisher.Done()
		for s.republishOnce() {
		}
	}()
}

// republishOnce runs one solve of the open batch and reports whether the
// batch needs another. solveMu is released between rounds so a waiting
// AdvanceSlot, ReloadPricing, Snapshot or Close gets its turn.
func (s *Server) republishOnce() (again bool) {
	s.solveMu.Lock()
	defer s.solveMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && !s.ctrl.Settled() {
		if err := s.solveLocked(false); err != nil {
			s.logf("republish: %v", err)
		} else {
			again = !s.ctrl.Settled()
		}
	}
	s.republishing = again
	return again
}

// solveLocked runs one begin / solve / finish round on the open batch,
// which must not be empty. The caller holds solveMu and mu; unless keepMu is
// set, mu is released while the LP runs, so admissions proceed and may make
// the job stale — FinishRepublish then drops it and the batch stays
// unsettled. When the batch swapped to the LP's plan, the provisional plan
// records are refreshed from it.
func (s *Server) solveLocked(keepMu bool) error {
	job, err := s.ctrl.BeginRepublish(s.slot)
	if err != nil {
		return err
	}
	if keepMu {
		job.Solve()
	} else {
		s.mu.Unlock()
		job.Solve()
		s.mu.Lock()
	}
	return s.finishSolveLocked(job)
}

// finishSolveLocked applies a solved job under mu.
func (s *Server) finishSolveLocked(job *admission.RepublishJob) error {
	if err := job.Err(); err != nil {
		s.logf("republish solve at slot %d: %v", s.slot, err)
	}
	swapped, err := s.ctrl.FinishRepublish(job)
	if swapped {
		s.refreshProvisionalLocked()
	}
	return err
}

// refreshProvisionalLocked re-splits the batch's current merged plan into
// the per-file provisional records. After an LP swap a file's plan may use
// multiple paths, so Path no longer applies.
func (s *Server) refreshProvisionalLocked() {
	perFile := splitByFile(s.ctrl.BatchPlan())
	for _, f := range s.ctrl.Pending() {
		rec := s.plans[f.ID]
		if rec == nil || rec.Status != StatusProvisional {
			continue
		}
		if actions, ok := perFile[f.ID]; ok {
			rec.Actions = actions
			rec.Path = nil
		}
	}
}

// AdvanceSlot closes the current slot: the open batch is solved one last
// time (unless the republisher is disabled or already settled it),
// committed to the ledger, its records flipped to committed, and the clock
// moves to the next slot. It waits for a republisher solve in flight;
// transfers admitted during that wait join the closing batch.
func (s *Server) AdvanceSlot() (int, error) {
	s.solveMu.Lock()
	defer s.solveMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	if err := s.advanceLocked(); err != nil {
		return 0, err
	}
	return s.slot, nil
}

func (s *Server) advanceLocked() error {
	if err := s.commitBatchLocked(); err != nil {
		return err
	}
	s.slot++
	return nil
}

// commitBatchLocked finalizes the open batch (closing solve + TakePlan +
// ledger apply + record flip) without advancing the clock. The caller holds
// solveMu and mu.
//
// A batch the republisher already settled — the usual case — commits
// without an LP. Otherwise the closing solve keeps mu, unlike the
// republisher's: an admission let in here would join the closing batch,
// make the solve stale and force another on a larger batch, and LP time
// grows much faster than batch size — measured on daemon-wide, off-lock
// closing solves turned one slow batch into second-long advances (see
// DESIGN.md §10).
func (s *Server) commitBatchLocked() error {
	if !s.cfg.NoRepublish && !s.ctrl.Settled() {
		if err := s.solveLocked(true); err != nil {
			return err
		}
	}
	plan, files, err := s.ctrl.TakePlan()
	if err != nil {
		return err
	}
	if err := plan.Apply(s.ledger); err != nil {
		return fmt.Errorf("server: committing slot %d plan: %w", s.slot, err)
	}
	perFile := splitByFile(plan.Actions())
	for _, f := range files {
		rec := s.plans[f.ID]
		if rec == nil {
			continue
		}
		rec.Status = StatusCommitted
		rec.Actions = perFile[f.ID]
	}
	if len(files) > 0 {
		s.logf("slot %d: committed %d files, cost/slot %.4f", s.slot, len(files), s.ledger.CostPerSlot())
	}
	s.slotsAdvanced++
	return nil
}

// PlanByID returns the current record for one transfer.
func (s *Server) PlanByID(id int) (*PlanRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.plans[id]
	if !ok {
		return nil, false
	}
	return copyRecord(rec), true
}

// Status is the GET /v1/status body.
type Status struct {
	Slot          int             `json:"slot"`
	CostPerSlot   float64         `json:"cost_per_slot"`
	TotalCost     float64         `json:"total_cost"`
	PendingFiles  int             `json:"pending_files"`
	Plans         int             `json:"plans"`
	SlotsAdvanced int             `json:"slots_advanced"`
	Reloads       int             `json:"pricing_reloads"`
	Admission     admission.Stats `json:"admission"`
	Solver        core.SolveStats `json:"solver"`
}

// Status reports the server's aggregate state.
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

func (s *Server) statusLocked() Status {
	return Status{
		Slot:          s.slot,
		CostPerSlot:   s.ledger.CostPerSlot(),
		TotalCost:     s.ledger.TotalCost(),
		PendingFiles:  s.ctrl.PendingCount(),
		Plans:         len(s.plans),
		SlotsAdvanced: s.slotsAdvanced,
		Reloads:       s.reloads,
		Admission:     s.ctrl.Stats(),
		Solver:        s.ctrl.SolverStats(),
	}
}

// ReloadPricing swaps the link prices to the instance's, keeping topology
// and capacities fixed (changing either would invalidate in-flight
// reservations and recorded volumes). Prices are read per solve, so the
// next republish and all later slots price against the new tariff — the
// open batch is unsettled, so its commit re-solves it; the ledger's recorded
// volumes are unaffected. This is the SIGHUP handler's backend.
func (s *Server) ReloadPricing(inst *netmodel.Instance) error {
	s.solveMu.Lock()
	defer s.solveMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if inst.Datacenters != s.nw.NumDCs() {
		return fmt.Errorf("server: pricing reload changes datacenter count %d -> %d", s.nw.NumDCs(), inst.Datacenters)
	}
	seen := make(map[netmodel.Link]bool, len(inst.Links))
	for _, l := range inst.Links {
		from, to := netmodel.DC(l.From), netmodel.DC(l.To)
		if !s.nw.HasLink(from, to) {
			return fmt.Errorf("server: pricing reload adds link %d->%d", l.From, l.To)
		}
		if cap := s.nw.Capacity(from, to); l.Capacity != cap {
			return fmt.Errorf("server: pricing reload changes capacity of %d->%d from %g to %g", l.From, l.To, cap, l.Capacity)
		}
		if l.Price < 0 {
			return fmt.Errorf("server: negative price %g on %d->%d", l.Price, l.From, l.To)
		}
		seen[netmodel.Link{From: from, To: to}] = true
	}
	missing := ""
	s.nw.Links(func(l netmodel.Link, _, _ float64) {
		if !seen[l] && missing == "" {
			missing = l.String()
		}
	})
	if missing != "" {
		return fmt.Errorf("server: pricing reload drops link %s", missing)
	}
	// From here on the batch's LP verdict is priced on the old tariff.
	s.ctrl.Invalidate()
	for _, l := range inst.Links {
		if err := s.nw.SetLink(netmodel.DC(l.From), netmodel.DC(l.To), l.Price, l.Capacity); err != nil {
			return err
		}
	}
	s.reloads++
	s.logf("pricing reloaded (%d links)", len(inst.Links))
	return nil
}

// Close shuts the server down: the slot clock stops, the open batch is
// drained — committed through the normal slot pipeline, or discarded via
// Rollback under Config.DrainRollback — and, when SnapshotPath is set, the
// full state is snapshotted to disk for a later Restore.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stop, done := s.clockStop, s.clockDone
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	s.republisher.Wait()

	s.solveMu.Lock()
	defer s.solveMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var drainErr error
	if n := s.ctrl.PendingCount(); n > 0 {
		if s.cfg.DrainRollback {
			s.logf("drain: rolling back %d pending files", n)
			drainErr = s.ctrl.Rollback()
		} else {
			s.logf("drain: committing %d pending files", n)
			drainErr = s.commitBatchLocked()
		}
	}
	if s.cfg.SnapshotPath != "" {
		if err := s.writeSnapshotLocked(s.cfg.SnapshotPath); err != nil {
			if drainErr == nil {
				drainErr = err
			}
			s.logf("snapshot: %v", err)
		} else {
			s.logf("snapshot written to %s", s.cfg.SnapshotPath)
		}
	}
	return drainErr
}

var errClosed = fmt.Errorf("server: closed")

// splitByFile groups a sorted action list per file ID.
func splitByFile(actions []schedule.Action) map[int][]schedule.Action {
	out := make(map[int][]schedule.Action)
	for _, a := range actions {
		out[a.FileID] = append(out[a.FileID], a)
	}
	return out
}

// sortedPlanIDs returns the record keys ascending (stable /metrics and
// snapshot output).
func (s *Server) sortedPlanIDsLocked() []int {
	ids := make([]int, 0, len(s.plans))
	for id := range s.plans {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
