package server

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/workload"
)

// update re-records the checked-in v1 snapshot and its uninterrupted twin's
// costs instead of comparing against them:
//
//	go test ./internal/server -run SnapshotV1 -update
//
// Re-recording defeats the test's purpose — the file pins a snapshot an
// older build wrote — so only do it when SnapshotVersion changes. A
// deliberate change to the solver's tie-breaks moves the uninterrupted
// costs alone: re-record in a copy of the tree and take back only
// snapshot-v1.want.json, never the snapshot.
var update = flag.Bool("update", false, "rewrite testdata/snapshot-v1*.json")

const (
	snapshotV1Path = "testdata/snapshot-v1.json"
	snapshotV1Want = "testdata/snapshot-v1.want.json"
)

// v1DCs, v1Cut and v1Slots shape the deterministic run behind the
// checked-in snapshot: a 5-DC trace driven through the commit-only pipeline (one LP per slot, so
// the solve sequence does not depend on timing), snapshotted mid-slot at
// v1Cut with that slot's transfers admitted but not committed.
const v1DCs, v1Cut, v1Slots = 5, 4, 9

// v1Want is what the uninterrupted run did: the ledger's cost per slot after
// each slot commit, over the whole horizon.
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

// recordSnapshotV1 rewrites the snapshot and the uninterrupted costs.
func recordSnapshotV1(t *testing.T) {
	tr := v1Trace(t)
	cfg := func() Config {
		return Config{
			Network:               testNetwork(t, v1DCs, 150),
			Charging:              netmodel.Charging{Q: 100, PeriodSlots: v1Slots},
			RepublishOnCommitOnly: true,
		}
	}

	full := testServer(t, cfg())
	var want v1Want
	for slot := 0; slot < v1Slots; slot++ {
		v1Admit(t, full, tr, slot)
		want.CostPerSlot = append(want.CostPerSlot, v1Advance(t, full))
	}
	want.TotalCost = full.Status().TotalCost

	cut := testServer(t, cfg())
	for slot := 0; slot < v1Cut; slot++ {
		v1Admit(t, cut, tr, slot)
		v1Advance(t, cut)
	}
	v1Admit(t, cut, tr, v1Cut)
	if err := cut.WriteSnapshot(snapshotV1Path); err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(want, "", " ")
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
// every remaining slot must commit at the cost the uninterrupted run did.
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
	if len(want.CostPerSlot) != v1Slots {
		t.Fatalf("%s records %d slots, want %d", snapshotV1Want, len(want.CostPerSlot), v1Slots)
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

	tr := v1Trace(t)
	for slot := v1Cut; slot < v1Slots; slot++ {
		if slot > v1Cut {
			v1Admit(t, s, tr, slot)
		}
		if got := v1Advance(t, s); got != want.CostPerSlot[slot] {
			t.Errorf("slot %d: cost per slot %v after restore, uninterrupted %v", slot, got, want.CostPerSlot[slot])
		}
	}
	if got := s.Status().TotalCost; got != want.TotalCost {
		t.Errorf("total cost %v after restore, uninterrupted %v", got, want.TotalCost)
	}
}
