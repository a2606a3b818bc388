package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/interdc/postcard/internal/admission"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
)

// The interleaving harness drives one server through an arbitrary order of
// the events its two locks let interleave — admit, the three steps of a
// solve, advance, reload, snapshot → restore — from a single goroutine, so a
// failing order replays exactly. The server runs with RepublishOnCommitOnly:
// it starts no goroutine of its own, and the harness plays the republisher.

const (
	ilDCs      = 4
	ilCapacity = 100
	ilMaxSteps = 256
	ilTol      = 1e-6
)

// Events, selected by one input byte modulo 16. Admissions are the most
// frequent so batches grow between solves.
const (
	ilAdmitBelow  = 6  // 0-5: admit (three more bytes: endpoints, size, deadline)
	ilBeginBelow  = 8  // 6-7: begin a job on the open batch
	ilSolveBelow  = 10 // 8-9: solve one begun job (next byte picks it)
	ilFinishBelow = 13 // 10-12: finish one job, solving it first if need be
	ilAdvance     = 13
	ilReload      = 14 // next byte picks the price factor
	ilRestore     = 15
)

type ilJob struct {
	job    *admission.RepublishJob
	epoch  int // the harness's batch generation when the job began
	solved bool
}

// ilCounts says what a run exercised, so the fixed-seed test can insist the
// interesting cases occurred.
type ilCounts struct {
	staleFinishes, swaps, rejects, compared, restores int
}

type interleaving struct {
	t    *testing.T
	s    *Server
	data []byte
	jobs []*ilJob
	// epoch is the harness's own model of staleness: it moves on every
	// admitted transfer, advance, reload and restore, and a job whose epoch
	// is not the current one must never swap.
	epoch   int
	volumes map[[3]int]float64 // the ledger as last seen
	n       ilCounts
}

func (il *interleaving) next() byte {
	if len(il.data) == 0 {
		return 0
	}
	b := il.data[0]
	il.data = il.data[1:]
	return b
}

func runInterleaving(t *testing.T, data []byte) ilCounts {
	t.Helper()
	if len(data) > ilMaxSteps {
		data = data[:ilMaxSteps]
	}
	s, err := New(Config{
		Network:               testNetwork(t, ilDCs, ilCapacity),
		Charging:              netmodel.MaxCharging(64),
		RepublishOnCommitOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	il := &interleaving{t: t, s: s, data: data, volumes: map[[3]int]float64{}}
	for len(il.data) > 0 {
		switch op := il.next() % 16; {
		case op < ilAdmitBelow:
			il.admit()
		case op < ilBeginBelow:
			il.begin()
		case op < ilSolveBelow:
			if j := il.pick(); j != nil && !j.solved {
				j.job.Solve()
				j.solved = true
			}
		case op < ilFinishBelow:
			il.finish()
		case op == ilAdvance:
			il.advance()
		case op == ilReload:
			il.reload()
		case op == ilRestore:
			il.restore()
		}
		il.check()
	}
	il.advance()
	il.check()
	// Every job still out is stale now; finishing it must change nothing.
	for len(il.jobs) > 0 {
		il.finish()
		il.check()
	}
	if got := il.s.ctrl.Reservations().TotalReserved(); got != 0 {
		t.Fatalf("%v GB reserved after the last advance", got)
	}
	if got := il.s.Status().PendingFiles; got != 0 {
		t.Fatalf("pending_files = %d after the last advance", got)
	}
	return il.n
}

func (il *interleaving) admit() {
	ends, size, deadline := il.next(), il.next(), il.next()
	src := int(ends) % ilDCs
	req := TransferRequest{
		Src:      src,
		Dst:      (src + 1 + int(ends/ilDCs)%(ilDCs-1)) % ilDCs,
		SizeGB:   float64(1 + size%40),
		Deadline: 1 + int(deadline)%3,
	}
	if size >= 250 {
		req.SizeGB = 1e6 // more than the network can carry: a certain refusal
	}
	resp, err := il.s.Admit(req)
	if err != nil {
		il.t.Fatalf("admit %+v: %v", req, err)
	}
	if resp.Admitted {
		il.epoch++
	} else {
		il.n.rejects++
	}
}

func (il *interleaving) begin() {
	if il.s.ctrl.PendingCount() == 0 {
		return
	}
	il.s.mu.Lock()
	job, err := il.s.ctrl.BeginRepublish(il.s.slot)
	il.s.mu.Unlock()
	if err != nil {
		il.t.Fatalf("begin: %v", err)
	}
	il.jobs = append(il.jobs, &ilJob{job: job, epoch: il.epoch})
}

// pick selects one outstanding job by the next input byte.
func (il *interleaving) pick() *ilJob {
	if len(il.jobs) == 0 {
		return nil
	}
	return il.jobs[int(il.next())%len(il.jobs)]
}

func (il *interleaving) finish() {
	j := il.pick()
	if j == nil {
		return
	}
	for k, o := range il.jobs {
		if o == j {
			il.jobs = append(il.jobs[:k], il.jobs[k+1:]...)
			break
		}
	}
	if !j.solved {
		j.job.Solve()
	}
	s := il.s
	plan, republishes := s.ctrl.BatchPlan(), s.ctrl.Stats().Republishes
	s.mu.Lock()
	err := s.finishSolveLocked(j.job)
	s.mu.Unlock()
	if err != nil {
		il.t.Fatalf("finish: %v", err)
	}
	swapped := s.ctrl.Stats().Republishes != republishes
	if swapped {
		il.n.swaps++
	}
	if j.epoch != il.epoch {
		il.n.staleFinishes++
		if swapped || !reflect.DeepEqual(plan, s.ctrl.BatchPlan()) {
			il.t.Fatalf("a stale job (epoch %d, now %d) swapped the batch plan", j.epoch, il.epoch)
		}
	} else if !s.ctrl.Settled() {
		il.t.Fatal("a fresh finish left the batch unsettled")
	}
}

// advance closes the slot and checks its commit: the plan is feasible at the
// capacities it was decided against, and costs what a sequential run of the
// same batch from the same ledger costs.
func (il *interleaving) advance() {
	s := il.s
	before, files, slot := s.ledger.Clone(), s.ctrl.Pending(), s.slot
	want, comparable := il.reference(before.Clone(), files, slot)
	solves := s.ctrl.SolverStats().Solves
	settled := s.ctrl.Settled()
	if _, err := s.AdvanceSlot(); err != nil {
		il.t.Fatalf("advance at slot %d: %v", slot, err)
	}
	il.epoch++
	// With a job out, its solve may be in the live counters and not yet in
	// the published ones, so the difference says nothing about this commit.
	if got := s.ctrl.SolverStats().Solves - solves; len(il.jobs) == 0 {
		if settled && got != 0 {
			il.t.Fatalf("slot %d: %d solves at the commit of a settled batch", slot, got)
		} else if !settled && got != 1 {
			il.t.Fatalf("slot %d: %d solves at the commit of an unsettled batch, want 1", slot, got)
		}
	}
	committed := &schedule.Schedule{}
	for _, f := range files {
		rec := s.plans[f.ID]
		if rec == nil || rec.Status != StatusCommitted {
			il.t.Fatalf("slot %d: file %d not committed: %+v", slot, f.ID, rec)
		}
		for _, a := range rec.Actions {
			committed.Add(a)
		}
	}
	if err := schedule.Verify(committed, s.nw, files, schedule.VerifyConfig{Residual: before.Residual, Tol: 1e-4}); err != nil {
		il.t.Fatalf("slot %d: committed plan fails verification: %v", slot, err)
	}
	if comparable {
		il.n.compared++
		if got := s.ledger.CostPerSlot(); math.Abs(got-want) > ilTol*math.Max(1, math.Abs(want)) {
			il.t.Fatalf("slot %d: committed cost/slot %v, sequential reference %v", slot, got, want)
		}
	}
}

// reference is the sequential pipeline the daemon must match: a fresh
// controller over a copy of the pre-commit ledger admits the batch's files
// in order, republishes once and commits. It reports false when there is
// nothing to compare — an empty batch, or a file the reference's fast tier
// refuses because its reservations differ from the daemon's at that point.
func (il *interleaving) reference(ledger *netmodel.Ledger, files []netmodel.File, slot int) (float64, bool) {
	if len(files) == 0 {
		return 0, false
	}
	ctrl, err := admission.NewController(ledger, nil)
	if err != nil {
		il.t.Fatal(err)
	}
	for _, f := range files {
		dec, err := ctrl.Admit(f, slot)
		if err != nil {
			il.t.Fatal(err)
		}
		if !dec.Admitted {
			return 0, false
		}
	}
	if err := ctrl.Republish(slot); err != nil {
		il.t.Fatalf("reference republish at slot %d: %v", slot, err)
	}
	plan, _, err := ctrl.TakePlan()
	if err != nil {
		il.t.Fatal(err)
	}
	if err := plan.Apply(ledger); err != nil {
		il.t.Fatal(err)
	}
	return ledger.CostPerSlot(), true
}

func (il *interleaving) reload() {
	inst := netmodel.InstanceOf(il.s.nw, nil)
	factor := []float64{0.5, 2, 3}[int(il.next())%3]
	for k := range inst.Links {
		// Keep prices inside a band so repeated reloads stay well scaled.
		if p := inst.Links[k].Price * factor; p >= 0.1 && p <= 100 {
			inst.Links[k].Price = p
		}
	}
	if err := il.s.ReloadPricing(inst); err != nil {
		il.t.Fatalf("reload: %v", err)
	}
	il.epoch++
}

// restore replaces the server by one restored from its JSON snapshot, as a
// kill and restart would. Jobs begun before stay out and must be dropped by
// the restored server.
func (il *interleaving) restore() {
	raw, err := json.Marshal(il.s.Snapshot())
	if err != nil {
		il.t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		il.t.Fatal(err)
	}
	s, err := Restore(Config{RepublishOnCommitOnly: true}, &snap)
	if err != nil {
		il.t.Fatalf("restore: %v", err)
	}
	was, now := il.s.Status(), s.Status()
	if len(il.jobs) > 0 {
		// A job solved but not finished has moved the live solver's counters,
		// which the snapshot carries, past the published copy. Only this
		// harness can snapshot in that state; the daemon's solveMu cannot.
		was.Solver = now.Solver
	}
	if !reflect.DeepEqual(was, now) {
		il.t.Fatalf("status changed across restore:\nwas %+v\nnow %+v", was, now)
	}
	il.s = s
	il.epoch++
	il.n.restores++
}

// check holds after every event.
func (il *interleaving) check() {
	s := il.s
	res := s.ctrl.Reservations()
	plan := s.ctrl.BatchPlan()

	// Reservations are exactly the current batch plan's transfers.
	want := map[[3]int]float64{}
	extent := res.Extent()
	for _, a := range plan {
		if !a.IsHold() {
			want[[3]int{int(a.From), int(a.To), a.Slot}] += a.Amount
			if a.Slot >= extent {
				extent = a.Slot + 1
			}
		}
	}
	for i := 0; i < ilDCs; i++ {
		for j := 0; j < ilDCs; j++ {
			for slot := 0; slot < extent; slot++ {
				got := res.Reserved(netmodel.DC(i), netmodel.DC(j), slot)
				if w := want[[3]int{i, j, slot}]; math.Abs(got-w) > ilTol {
					il.t.Fatalf("link %d->%d slot %d: %v GB reserved, the batch plan carries %v", i, j, slot, got, w)
				}
			}
		}
	}

	// A client reading a provisional record sees the current batch plan.
	perFile := splitByFile(plan)
	for _, f := range s.ctrl.Pending() {
		rec, ok := s.PlanByID(f.ID)
		if !ok || rec.Status != StatusProvisional {
			il.t.Fatalf("pending file %d has no provisional record: %+v", f.ID, rec)
		}
		if !reflect.DeepEqual(rec.Actions, perFile[f.ID]) {
			il.t.Fatalf("file %d: record shows %v, the batch plan carries %v", f.ID, rec.Actions, perFile[f.ID])
		}
	}

	// The ledger never shrinks.
	period := s.ledger.EffectivePeriodSlots()
	for i := 0; i < ilDCs; i++ {
		for j := 0; j < ilDCs; j++ {
			for slot := 0; slot < period; slot++ {
				key := [3]int{i, j, slot}
				v := s.ledger.VolumeAt(netmodel.DC(i), netmodel.DC(j), slot)
				if v < il.volumes[key] {
					il.t.Fatalf("ledger shrank on %d->%d slot %d: %v -> %v", i, j, slot, il.volumes[key], v)
				}
				if v != 0 {
					il.volumes[key] = v
				}
			}
		}
	}
}

// Handwritten orders for the seed corpus. Operands follow their event.
var ilSeeds = [][]byte{
	// admit, begin, admit, finish: the job is stale and dropped; advance.
	{0, 1, 20, 2, 6, 0, 6, 30, 1, 10, 0, 13},
	// admit ×2, begin, solve, finish (fresh: swaps and settles), advance
	// (no solve), admit, advance.
	{0, 0, 39, 2, 0, 0, 29, 2, 6, 8, 0, 10, 0, 13, 0, 5, 10, 1, 13},
	// a job begun before an advance and one before a reload, finished late.
	{0, 2, 35, 2, 6, 13, 0, 3, 25, 1, 6, 14, 1, 10, 0, 10, 0, 13},
	// snapshot → restore mid-batch with a job out; the restored server
	// drops it and commits on its own.
	{0, 1, 30, 2, 0, 6, 30, 2, 6, 8, 0, 15, 10, 0, 0, 9, 12, 0, 13},
	// a certain refusal between admissions; two jobs of one generation.
	{0, 1, 10, 1, 0, 1, 255, 1, 6, 6, 10, 1, 10, 0, 13},
}

// FuzzRepublishInterleaving lets the fuzzer search the event orders.
func FuzzRepublishInterleaving(f *testing.F) {
	for _, seed := range ilSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runInterleaving(t, data)
	})
}

// TestRepublishInterleaving runs the handwritten orders and a fixed set of
// random ones, and checks that between them they reached the cases the
// harness exists for.
func TestRepublishInterleaving(t *testing.T) {
	var total ilCounts
	add := func(n ilCounts) {
		total.staleFinishes += n.staleFinishes
		total.swaps += n.swaps
		total.rejects += n.rejects
		total.compared += n.compared
		total.restores += n.restores
	}
	for _, seed := range ilSeeds {
		add(runInterleaving(t, seed))
	}
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 1; seed <= seeds; seed++ {
		data := make([]byte, 160)
		rand.New(rand.NewSource(int64(seed))).Read(data)
		add(runInterleaving(t, data))
	}
	t.Logf("exercised: %+v", total)
	if total.staleFinishes == 0 || total.swaps == 0 || total.rejects == 0 || total.compared == 0 || total.restores == 0 {
		t.Errorf("a case was never reached: %+v", total)
	}
}
