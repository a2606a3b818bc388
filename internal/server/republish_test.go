package server

import (
	"sync"
	"testing"
	"time"

	"github.com/interdc/postcard/internal/netmodel"
)

// returnsPromptly fails the test when fn is still running after a time no
// bookkeeping step needs: it is how a call queued behind a lock shows.
func returnsPromptly(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s is waiting for the solve in flight", what)
	}
}

// TestAdmitDoesNotWaitForSolve holds a solve in flight — solveMu taken, a job
// begun and not finished, as the republisher is while the LP runs — and
// checks everything a client calls on the hot path still answers. The batch
// grew meanwhile, so the late finish is dropped.
func TestAdmitDoesNotWaitForSolve(t *testing.T) {
	s := testServer(t, Config{
		Network:               testNetwork(t, 4, 100),
		Charging:              netmodel.MaxCharging(16),
		RepublishOnCommitOnly: true, // the test is the only republisher
	})
	first, err := s.Admit(TransferRequest{Src: 0, Dst: 2, SizeGB: 30, Deadline: 3})
	if err != nil || !first.Admitted {
		t.Fatalf("first admit: %+v, %v", first, err)
	}

	s.solveMu.Lock()
	s.mu.Lock()
	job, err := s.ctrl.BeginRepublish(s.slot)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	returnsPromptly(t, "Admit", func() {
		resp, err := s.Admit(TransferRequest{Src: 1, Dst: 3, SizeGB: 20, Deadline: 2})
		if err != nil || !resp.Admitted {
			t.Errorf("admit during the solve: %+v, %v", resp, err)
		}
	})
	var during *PlanRecord
	returnsPromptly(t, "PlanByID", func() { during, _ = s.PlanByID(first.ID) })
	returnsPromptly(t, "Status", func() {
		if st := s.Status(); st.PendingFiles != 2 || st.Solver.Solves != 0 {
			t.Errorf("status during the solve: %d pending, %d solves published", st.PendingFiles, st.Solver.Solves)
		}
	})
	if during == nil || during.Status != StatusProvisional || len(during.Path) == 0 {
		t.Fatalf("plan read during the solve: %+v, want the fast tier's single path", during)
	}

	job.Solve()
	s.mu.Lock()
	err = s.finishSolveLocked(job)
	s.mu.Unlock()
	s.solveMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.Admission.Republishes != 0 {
		t.Errorf("the late finish swapped: %d republishes", st.Admission.Republishes)
	}
	if st.Solver.Solves != 1 {
		t.Errorf("the dropped job's solve is not in the published counters: %d solves", st.Solver.Solves)
	}
	if after, _ := s.PlanByID(first.ID); len(after.Path) == 0 {
		t.Errorf("the late finish rewrote file %d's record: %+v", first.ID, after)
	}

	// The batch is unsettled, so the commit solves it — once, both files.
	if _, err := s.AdvanceSlot(); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Solver.Solves != 2 || st.Admission.Republishes != 1 || st.PendingFiles != 0 {
		t.Errorf("after advance: %d solves, %d republishes, %d pending", st.Solver.Solves, st.Admission.Republishes, st.PendingFiles)
	}
}

// TestOneSolvePerNonEmptySlot pins the solve count of the commit path, the
// invariant scripts/server_smoke.sh diffs against a sequential run: under
// RepublishOnCommitOnly a slot costs exactly one LP solve when it has files
// and none when it has not; and a batch the republisher already settled is
// not solved again at its commit.
func TestOneSolvePerNonEmptySlot(t *testing.T) {
	s := testServer(t, Config{
		Network:               testNetwork(t, 4, 100),
		Charging:              netmodel.MaxCharging(16),
		RepublishOnCommitOnly: true,
	})
	admit := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			resp, err := s.Admit(TransferRequest{Src: k % 4, Dst: (k + 1) % 4, SizeGB: 10, Deadline: 2})
			if err != nil || !resp.Admitted {
				t.Fatalf("admit: %+v, %v", resp, err)
			}
		}
	}
	advance := func() {
		t.Helper()
		if _, err := s.AdvanceSlot(); err != nil {
			t.Fatal(err)
		}
	}
	// republish plays one round of the republisher, as the daemon runs it.
	republish := func() {
		t.Helper()
		s.solveMu.Lock()
		s.mu.Lock()
		err := s.solveLocked(false)
		s.mu.Unlock()
		s.solveMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	for slot, files := range []int{3, 0, 1, 5, 0, 2} {
		admit(files)
		advance()
		if files > 0 {
			want++
		}
		if got := s.Status().Solver.Solves; got != want {
			t.Fatalf("after slot %d (%d files): %d LP solves, want %d", slot, files, got, want)
		}
	}

	admit(2)
	republish()
	want++
	advance()
	if got := s.Status().Solver.Solves; got != want {
		t.Errorf("%d LP solves after committing a settled batch, want %d", got, want)
	}

	// A reload reprices the batch, so its verdict no longer stands.
	admit(1)
	republish()
	if err := s.ReloadPricing(netmodel.InstanceOf(s.nw, nil)); err != nil {
		t.Fatal(err)
	}
	advance()
	want += 2
	if got := s.Status().Solver.Solves; got != want {
		t.Errorf("%d LP solves after a reload unsettled the batch, want %d", got, want)
	}
}

// TestAdvanceUnderArrivals closes slots while two goroutines admit about
// once a millisecond each — several arrivals per LP solve, so the
// republisher's jobs keep going stale and it is always mid-solve when an
// advance arrives: AdvanceSlot must still get its turn and return, and
// nothing may be left reserved or pending once the arrivals stop.
func TestAdvanceUnderArrivals(t *testing.T) {
	s := testServer(t, Config{Network: testNetwork(t, 5, 1e6), Charging: netmodel.MaxCharging(64)})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(time.Millisecond) // paces the load; orders nothing
				if s.Status().PendingFiles >= 40 {
					// Keep the LP small: a slow host (the race detector)
					// would otherwise grow the batch faster than it solves.
					continue
				}
				if _, err := s.Admit(TransferRequest{Src: w, Dst: 2 + k%3, SizeGB: 1, Deadline: 2}); err != nil {
					t.Errorf("admit: %v", err)
					return
				}
			}
		}(w)
	}
	for k := 0; k < 6; k++ {
		for s.Status().PendingFiles < 8 && !t.Failed() {
			time.Sleep(time.Millisecond)
		}
		returnsPromptly(t, "AdvanceSlot under arrivals", func() {
			if _, err := s.AdvanceSlot(); err != nil {
				t.Errorf("advance: %v", err)
			}
		})
	}
	close(stop)
	wg.Wait()
	if _, err := s.AdvanceSlot(); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.PendingFiles != 0 {
		t.Errorf("pending files after the final advance: %d", st.PendingFiles)
	}
	// The republisher may still be finishing a round on the empty batch.
	s.republisher.Wait()
	if got := s.ctrl.Reservations().TotalReserved(); got != 0 {
		t.Errorf("%v GB reserved after the final advance", got)
	}
	verifyCommittedPlans(t, s)
}
