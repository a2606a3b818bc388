package server

import (
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"testing"

	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/workload"
)

// update re-records the costs of the checked-in v1 snapshot's twin instead
// of comparing against them:
//
//	go test ./internal/server -run SnapshotV1 -update
//
// It rewrites snapshot-v1.want.json from the snapshot on disk, and writes a
// new snapshot first only when none is there. The snapshot pins what an
// older build wrote, so never delete it to re-record it unless
// SnapshotVersion changes. A deliberate change to the solver's tie-breaks
// moves the twin's costs: re-record them with -update and check the diff.
var update = flag.Bool("update", false, "rewrite testdata/snapshot-v1.want.json")

const (
	snapshotV1Path = "testdata/snapshot-v1.json"
	snapshotV1Want = "testdata/snapshot-v1.want.json"
)

// v1DCs, v1Cut and v1Slots shape the deterministic run behind the
// checked-in snapshot: a 5-DC trace driven through the commit-only pipeline (one LP per slot, so
// the solve sequence does not depend on timing), snapshotted mid-slot at
// v1Cut with that slot's transfers admitted but not committed.
const v1DCs, v1Cut, v1Slots = 5, 4, 9

// v1Want is what the snapshot's twin did: the ledger's cost per slot after
// each slot commit from v1Cut to the end of the horizon. The twin is the
// snapshot restored with its solver's LP state cleared. The snapshot was
// written by a build whose re-optimizer ran the arc model, whose plans
// differ from the path master's in the last bits (at slots 1-3 of this
// trace), so no run of this build reproduces the snapshot's history
// through the cut; what the file can pin is how the run resumes. The
// snapshot's arc basis does not fit the path master, so the restore drops
// it and solves cold (core.Solver.Restore), exactly as the twin does.
type v1Want struct {
	CostPerSlot []float64 `json:"cost_per_slot"`
	TotalCost   float64   `json:"total_cost"`
}

func v1Trace(t *testing.T) *workload.Trace {
	t.Helper()
	gen, err := workload.NewUniform(workload.UniformConfig{
		NumDCs: v1DCs, MinFiles: 1, MaxFiles: 3,
		MinSizeGB: 5, MaxSizeGB: 30, MaxDeadline: 3, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return workload.Record(gen, v1Slots)
}

// v1Admit admits one slot's transfers.
func v1Admit(t *testing.T, s *Server, tr *workload.Trace, slot int) {
	t.Helper()
	for _, f := range tr.FilesAt(slot) {
		resp, err := s.Admit(TransferRequest{
			Src: int(f.Src), Dst: int(f.Dst), SizeGB: f.Size,
			Deadline: f.Deadline, Release: f.Release,
		})
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if !resp.Admitted {
			t.Fatalf("slot %d: file %d rejected", slot, f.ID)
		}
	}
}

// v1Advance commits the open slot and returns the ledger's cost per slot.
func v1Advance(t *testing.T, s *Server) float64 {
	t.Helper()
	if _, err := s.AdvanceSlot(); err != nil {
		t.Fatal(err)
	}
	return s.Status().CostPerSlot
}

// v1Finish runs a server restored at the cut to the end of the horizon and
// returns what it did.
func v1Finish(t *testing.T, s *Server) v1Want {
	t.Helper()
	tr := v1Trace(t)
	var got v1Want
	for slot := v1Cut; slot < v1Slots; slot++ {
		if slot > v1Cut {
			v1Admit(t, s, tr, slot)
		}
		got.CostPerSlot = append(got.CostPerSlot, v1Advance(t, s))
	}
	got.TotalCost = s.Status().TotalCost
	return got
}

// recordSnapshotV1 writes the snapshot when it is absent, then rewrites its
// twin's costs.
func recordSnapshotV1(t *testing.T) {
	if _, err := os.Stat(snapshotV1Path); errors.Is(err, fs.ErrNotExist) {
		tr := v1Trace(t)
		cut := testServer(t, Config{
			Network:               testNetwork(t, v1DCs, 150),
			Charging:              netmodel.Charging{Q: 100, PeriodSlots: v1Slots},
			RepublishOnCommitOnly: true,
		})
		for slot := 0; slot < v1Cut; slot++ {
			v1Admit(t, cut, tr, slot)
			v1Advance(t, cut)
		}
		v1Admit(t, cut, tr, v1Cut)
		if err := cut.WriteSnapshot(snapshotV1Path); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(snapshotV1Path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Controller.Solver.Valid = false
	twin, err := Restore(Config{RepublishOnCommitOnly: true}, &snap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { twin.Close() })
	raw, err = json.MarshalIndent(v1Finish(t, twin), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotV1Want, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotV1Restores restores a version-1 snapshot that an older build
// wrote — its solver counters include fields this build no longer has — and
// finishes the horizon. The kept counters must come back as written, and
// every remaining slot must commit at the cost its twin did (see v1Want).
// The file must restore forever: if this test fails, the change broke
// snapshots already on disk, not the test.
func TestSnapshotV1Restores(t *testing.T) {
	if *update {
		recordSnapshotV1(t)
	}
	raw, err := os.ReadFile(snapshotV1Path)
	if err != nil {
		t.Fatal(err)
	}
	var want v1Want
	rawWant, err := os.ReadFile(snapshotV1Want)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawWant, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.CostPerSlot) != v1Slots-v1Cut {
		t.Fatalf("%s records %d slots, want %d", snapshotV1Want, len(want.CostPerSlot), v1Slots-v1Cut)
	}

	s, err := RestoreFile(Config{RepublishOnCommitOnly: true}, snapshotV1Path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	st := s.Status()
	if st.Slot != v1Cut || st.PendingFiles == 0 {
		t.Fatalf("restored slot %d with %d pending files, want slot %d with an open batch", st.Slot, st.PendingFiles, v1Cut)
	}

	// Every counter SolveStats still has reads back exactly as written; one
	// added after v1 restores as zero.
	var file struct {
		Controller struct {
			Solver struct {
				Valid bool                       `json:"valid"`
				Stats map[string]json.RawMessage `json:"stats"`
			} `json:"solver"`
		} `json:"controller"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !file.Controller.Solver.Valid {
		t.Fatal("snapshot carries no warm basis")
	}
	rawKept, err := json.Marshal(st.Solver)
	if err != nil {
		t.Fatal(err)
	}
	var kept map[string]json.RawMessage
	if err := json.Unmarshal(rawKept, &kept); err != nil {
		t.Fatal(err)
	}
	for name, got := range kept {
		w, ok := file.Controller.Solver.Stats[name]
		if !ok {
			w = json.RawMessage("0")
		}
		if string(got) != string(w) {
			t.Errorf("SolveStats.%s restored as %s, snapshot has %s", name, got, w)
		}
	}

	got := v1Finish(t, s)
	for i, cost := range got.CostPerSlot {
		if cost != want.CostPerSlot[i] {
			t.Errorf("slot %d: cost per slot %v after restore, twin %v", v1Cut+i, cost, want.CostPerSlot[i])
		}
	}
	if got.TotalCost != want.TotalCost {
		t.Errorf("total cost %v after restore, twin %v", got.TotalCost, want.TotalCost)
	}
}
