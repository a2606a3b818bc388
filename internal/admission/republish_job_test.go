package admission

import (
	"reflect"
	"strings"
	"testing"

	"github.com/interdc/postcard/internal/netmodel"
)

// jobFixture is a controller over a triangle network with two files
// admitted at slot 0; the LP improves on the fast tier's plans, so a fresh
// job swaps.
func jobFixture(t *testing.T) *Controller {
	t.Helper()
	ledger, err := netmodel.NewLedger(triangle(t, 100), netmodel.MaxCharging(8))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(ledger, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []netmodel.File{
		{ID: 1, Src: 0, Dst: 1, Size: 40, Deadline: 3, Release: 0},
		{ID: 2, Src: 0, Dst: 1, Size: 30, Deadline: 4, Release: 0},
	} {
		admitOrFatal(t, ctrl, f, 0)
	}
	return ctrl
}

func admitOrFatal(t *testing.T, ctrl *Controller, f netmodel.File, now int) {
	t.Helper()
	dec, err := ctrl.Admit(f, now)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted {
		t.Fatalf("file %d rejected", f.ID)
	}
}

func solvedJob(t *testing.T, ctrl *Controller, now int) *RepublishJob {
	t.Helper()
	job, err := ctrl.BeginRepublish(now)
	if err != nil {
		t.Fatal(err)
	}
	job.Solve()
	return job
}

// TestStaleJobNeverSwaps begins and solves a job, changes the batch in each
// of the ways that make the job stale, and checks the late finish leaves
// plan, reservations and counters exactly as they were.
func TestStaleJobNeverSwaps(t *testing.T) {
	third := netmodel.File{ID: 3, Src: 1, Dst: 2, Size: 10, Deadline: 2, Release: 0}
	cases := map[string]func(t *testing.T, ctrl *Controller){
		"admit": func(t *testing.T, ctrl *Controller) { admitOrFatal(t, ctrl, third, 0) },
		"take": func(t *testing.T, ctrl *Controller) {
			if _, _, err := ctrl.TakePlan(); err != nil {
				t.Fatal(err)
			}
		},
		"take then admit the next slot": func(t *testing.T, ctrl *Controller) {
			if _, _, err := ctrl.TakePlan(); err != nil {
				t.Fatal(err)
			}
			third.Release = 1
			admitOrFatal(t, ctrl, third, 1)
		},
		"rollback": func(t *testing.T, ctrl *Controller) {
			if err := ctrl.Rollback(); err != nil {
				t.Fatal(err)
			}
		},
		"invalidate": func(t *testing.T, ctrl *Controller) { ctrl.Invalidate() },
	}
	for name, change := range cases {
		t.Run(name, func(t *testing.T) {
			ctrl := jobFixture(t)
			job := solvedJob(t, ctrl, 0)
			change(t, ctrl)
			plan, table, stats := ctrl.BatchPlan(), reservationTable(t, ctrl.Reservations()), ctrl.Stats()
			swapped, err := ctrl.FinishRepublish(job)
			if swapped || err != nil {
				t.Fatalf("stale finish: swapped=%v err=%v, want dropped", swapped, err)
			}
			if !reflect.DeepEqual(plan, ctrl.BatchPlan()) {
				t.Error("stale job changed the batch plan")
			}
			if !reflect.DeepEqual(table, reservationTable(t, ctrl.Reservations())) {
				t.Error("stale job changed the reservations")
			}
			if stats != ctrl.Stats() {
				t.Errorf("stale job moved the counters: %+v -> %+v", stats, ctrl.Stats())
			}
			if ctrl.PendingCount() > 0 && ctrl.Settled() {
				t.Error("stale job settled the batch")
			}
			// Its solve still happened, and the published counters say so.
			if got := ctrl.SolverStats().Solves; got != 1 {
				t.Errorf("published solver stats show %d solves, want 1", got)
			}
		})
	}

	t.Run("another controller", func(t *testing.T) {
		job := solvedJob(t, jobFixture(t), 0)
		other := jobFixture(t)
		swapped, err := other.FinishRepublish(job)
		if swapped || err != nil {
			t.Fatalf("foreign finish: swapped=%v err=%v, want dropped", swapped, err)
		}
		if other.Settled() || other.SolverStats().Solves != 0 {
			t.Error("a foreign job settled the batch or published its solver counters")
		}
	})
}

// TestSettled pins the settled rule: a fresh finish settles the batch,
// whatever the verdict; every change to the batch unsettles it; an empty
// batch has nothing to solve.
func TestSettled(t *testing.T) {
	ctrl := jobFixture(t)
	if ctrl.Settled() {
		t.Fatal("an unsolved batch reads settled")
	}
	swapped, err := ctrl.FinishRepublish(solvedJob(t, ctrl, 0))
	if !swapped || err != nil {
		t.Fatalf("fresh finish: swapped=%v err=%v", swapped, err)
	}
	if !ctrl.Settled() {
		t.Fatal("a fresh finish left the batch unsettled")
	}
	// A second job of the same generation is not stale: Republish on a
	// settled batch still solves and swaps, as it always did.
	if err := ctrl.Republish(0); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Stats().Republishes; got != 2 {
		t.Errorf("republishes = %d, want 2", got)
	}
	admitOrFatal(t, ctrl, netmodel.File{ID: 3, Src: 1, Dst: 2, Size: 10, Deadline: 2, Release: 0}, 0)
	if ctrl.Settled() {
		t.Error("an admission left the batch settled")
	}
	if err := ctrl.Republish(0); err != nil {
		t.Fatal(err)
	}
	ctrl.Invalidate()
	if ctrl.Settled() {
		t.Error("Invalidate left the batch settled")
	}
	if _, _, err := ctrl.TakePlan(); err != nil {
		t.Fatal(err)
	}
	if !ctrl.Settled() {
		t.Error("an empty batch reads unsettled")
	}

	// A verdict that declines the LP plan settles too: a foreign
	// reservation makes the LP plan unreservable, the fast plan is kept,
	// and solving again could only decline again.
	ctrl = jobFixture(t)
	job := solvedJob(t, ctrl, 0)
	for slot := 0; slot < 4; slot++ {
		for _, l := range [][2]netmodel.DC{{0, 1}, {0, 2}, {2, 1}} {
			free := ctrl.Reservations().Available(l[0], l[1], slot)
			if err := ctrl.Reservations().Reserve(l[0], l[1], slot, free); err != nil {
				t.Fatal(err)
			}
		}
	}
	swapped, err = ctrl.FinishRepublish(job)
	if swapped || err != nil {
		t.Fatalf("declined finish: swapped=%v err=%v", swapped, err)
	}
	if !ctrl.Settled() {
		t.Error("a declined LP plan left the batch unsettled")
	}
}

// TestFailedSolveKeepsFastPlan checks that a republish whose LP solve
// fails settles the batch on the reserved fast-tier plan: the finish
// returns no error, plan and reservations stay as they were, the failure is
// counted, and the batch commits. Returning the error instead left the
// batch unsettled, so a slot commit that must settle it first failed on
// every retry.
func TestFailedSolveKeepsFastPlan(t *testing.T) {
	ctrl := jobFixture(t)
	plan, table := ctrl.BatchPlan(), reservationTable(t, ctrl.Reservations())
	job, err := ctrl.BeginRepublish(0)
	if err != nil {
		t.Fatal(err)
	}
	// A duplicate file ID makes the solver reject the batch.
	job.files[1].ID = job.files[0].ID
	job.Solve()
	if job.Err() == nil {
		t.Fatal("solving a batch with a duplicate file ID succeeded")
	}
	swapped, err := ctrl.FinishRepublish(job)
	if swapped || err != nil {
		t.Fatalf("failed solve: swapped=%v err=%v, want the fast plan kept", swapped, err)
	}
	if !ctrl.Settled() {
		t.Error("a failed solve left the batch unsettled")
	}
	if !reflect.DeepEqual(plan, ctrl.BatchPlan()) {
		t.Error("a failed solve changed the batch plan")
	}
	if !reflect.DeepEqual(table, reservationTable(t, ctrl.Reservations())) {
		t.Error("a failed solve changed the reservations")
	}
	if st := ctrl.Stats(); st.FailedSolves != 1 || st.Republishes != 0 {
		t.Errorf("failed solves = %d, republishes = %d, want 1 and 0", st.FailedSolves, st.Republishes)
	}
	taken, _, err := ctrl.TakePlan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, taken.Actions()) {
		t.Error("the taken plan is not the fast-tier plan")
	}
}

// TestJobMisuse covers the protocol's error paths: no batch, wrong slot, a
// job finished before it was solved.
func TestJobMisuse(t *testing.T) {
	ctrl := jobFixture(t)
	if _, err := ctrl.BeginRepublish(1); err == nil || !strings.Contains(err.Error(), "batch of slot 0") {
		t.Errorf("begin at the wrong slot: %v", err)
	}
	job, err := ctrl.BeginRepublish(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.FinishRepublish(job); err == nil {
		t.Error("finishing an unsolved job succeeded")
	}
	if err := ctrl.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.BeginRepublish(0); err == nil {
		t.Error("begin with no open batch succeeded")
	}
	if err := ctrl.Republish(0); err != nil {
		t.Errorf("republish of an empty batch: %v", err)
	}
}

// TestJobFilesAreACopy checks the job is immutable: admissions after begin
// do not reach the file set the LP solves.
func TestJobFilesAreACopy(t *testing.T) {
	ctrl := jobFixture(t)
	job, err := ctrl.BeginRepublish(0)
	if err != nil {
		t.Fatal(err)
	}
	admitOrFatal(t, ctrl, netmodel.File{ID: 3, Src: 1, Dst: 2, Size: 10, Deadline: 2, Release: 0}, 0)
	if len(job.files) != 2 {
		t.Fatalf("job sees %d files after a later admission, want 2", len(job.files))
	}
	job.Solve()
	for _, a := range job.res.Schedule.Actions() {
		if a.FileID == 3 {
			t.Fatalf("job planned a file admitted after begin: %v", a)
		}
	}
}
