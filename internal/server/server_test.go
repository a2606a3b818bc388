package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/sim"
	"github.com/interdc/postcard/internal/telemetry"
	"github.com/interdc/postcard/internal/workload"
)

func testNetwork(t *testing.T, dcs int, capacity float64) *netmodel.Network {
	t.Helper()
	nw, err := netmodel.Complete(dcs, workload.UniformPrices(3), capacity)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// TestServerAdmitAdvancePlan walks the basic lifecycle over real HTTP:
// admit two transfers, check the provisional records, advance the slot,
// and check the records flipped to committed with the final plans.
func TestServerAdmitAdvancePlan(t *testing.T) {
	s := testServer(t, Config{Network: testNetwork(t, 4, 100), Charging: netmodel.MaxCharging(16)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var resp TransferResponse
	code := postJSON(t, ts, "/v1/transfers", TransferRequest{Src: 0, Dst: 2, SizeGB: 30, Deadline: 3}, &resp)
	if code != http.StatusOK || !resp.Admitted || resp.ID != 1 {
		t.Fatalf("admit 1: code %d, resp %+v", code, resp)
	}
	if resp.Plan == nil || resp.Plan.Status != StatusProvisional || len(resp.Plan.Actions) == 0 {
		t.Fatalf("admit 1: provisional plan missing: %+v", resp.Plan)
	}
	code = postJSON(t, ts, "/v1/transfers", TransferRequest{Src: 1, Dst: 3, SizeGB: 20, Deadline: 2}, &resp)
	if code != http.StatusOK || resp.ID != 2 {
		t.Fatalf("admit 2: code %d, resp %+v", code, resp)
	}

	var rec PlanRecord
	if code := getJSON(t, ts, "/v1/plans/1", &rec); code != http.StatusOK {
		t.Fatalf("plans/1: code %d", code)
	}
	if rec.Status != StatusProvisional {
		t.Fatalf("plans/1 status %s before advance", rec.Status)
	}

	var adv struct {
		Slot int `json:"slot"`
	}
	if code := postJSON(t, ts, "/v1/slots/advance", nil, &adv); code != http.StatusOK || adv.Slot != 1 {
		t.Fatalf("advance: code %d slot %d", code, adv.Slot)
	}
	for id := 1; id <= 2; id++ {
		if code := getJSON(t, ts, fmt.Sprintf("/v1/plans/%d", id), &rec); code != http.StatusOK {
			t.Fatalf("plans/%d: code %d", id, code)
		}
		if rec.Status != StatusCommitted || len(rec.Actions) == 0 {
			t.Fatalf("plans/%d after advance: %+v", id, rec)
		}
		// Every committed action belongs to this file.
		for _, a := range rec.Actions {
			if a.FileID != id {
				t.Fatalf("plans/%d contains foreign action %+v", id, a)
			}
		}
	}
	if code := getJSON(t, ts, "/v1/plans/99", nil); code != http.StatusNotFound {
		t.Fatalf("plans/99: code %d, want 404", code)
	}

	var st Status
	if code := getJSON(t, ts, "/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: code %d", code)
	}
	if st.Slot != 1 || st.Admission.Admits != 2 || st.CostPerSlot <= 0 {
		t.Fatalf("status: %+v", st)
	}
}

// TestServerRejectCertificate checks the synchronous reject answer: an
// infeasible transfer gets 422 with the exhaustive-search certificate, no
// ID is leaked into the plan store, and the batch stays usable.
func TestServerRejectCertificate(t *testing.T) {
	s := testServer(t, Config{Network: testNetwork(t, 3, 10), Charging: netmodel.MaxCharging(16)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var resp TransferResponse
	code := postJSON(t, ts, "/v1/transfers", TransferRequest{Src: 0, Dst: 1, SizeGB: 1000, Deadline: 2}, &resp)
	if code != http.StatusUnprocessableEntity || resp.Admitted {
		t.Fatalf("oversized transfer: code %d, resp %+v", code, resp)
	}
	if !resp.Exhaustive {
		t.Errorf("rejection not exhaustive: %+v", resp)
	}
	if code := getJSON(t, ts, fmt.Sprintf("/v1/plans/%d", resp.ID), nil); code != http.StatusNotFound {
		t.Errorf("rejected transfer has a plan record (code %d)", code)
	}
	// A feasible transfer still admits afterwards.
	if code := postJSON(t, ts, "/v1/transfers", TransferRequest{Src: 0, Dst: 1, SizeGB: 5, Deadline: 2}, &resp); code != http.StatusOK || !resp.Admitted {
		t.Fatalf("follow-up admit: code %d, resp %+v", code, resp)
	}

	// Malformed bodies are 400, unknown fields included.
	r, err := http.Post(ts.URL+"/v1/transfers", "application/json", strings.NewReader(`{"sizes":1}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: code %d, want 400", r.StatusCode)
	}
}

// TestServerOversizeBody checks the request bound: a body past the limit is
// refused with 413 and the usual error body before it reaches Admit, and no
// counter of the daemon moves.
func TestServerOversizeBody(t *testing.T) {
	s := testServer(t, Config{Network: testNetwork(t, 3, 10), Charging: netmodel.MaxCharging(16)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := s.Status()
	// Valid JSON all the way, so only its size can be the objection.
	body := `{"src":0,"dst":1,"deadline":2,"size_gb":` + strings.Repeat("1", maxTransferBody) + `}`
	resp, err := http.Post(ts.URL+"/v1/transfers", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: code %d, want 413", resp.StatusCode)
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("oversize body: error body %+v, %v", e, err)
	}
	if after := s.Status(); !reflect.DeepEqual(before, after) {
		t.Errorf("a refused body moved the daemon's state:\nbefore %+v\nafter  %+v", before, after)
	}
	if s.nextID != 1 {
		t.Errorf("a refused body consumed file ID %d", s.nextID-1)
	}
	// The connection's next request is served as usual.
	var ok TransferResponse
	if code := postJSON(t, ts, "/v1/transfers", TransferRequest{Src: 0, Dst: 1, SizeGB: 5, Deadline: 2}, &ok); code != http.StatusOK || ok.ID != 1 {
		t.Errorf("admit after a refused body: code %d, %+v", code, ok)
	}
}

// TestServerMetrics checks the Prometheus exposition: scrape after a
// couple of slots and verify the counter values against /v1/status.
func TestServerMetrics(t *testing.T) {
	s := testServer(t, Config{Network: testNetwork(t, 4, 100), Charging: netmodel.MaxCharging(16)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts, "/v1/transfers", TransferRequest{Src: 0, Dst: 2, SizeGB: 30, Deadline: 3}, nil)
	postJSON(t, ts, "/v1/slots/advance", nil, nil)
	postJSON(t, ts, "/v1/transfers", TransferRequest{Src: 2, Dst: 1, SizeGB: 10, Deadline: 2}, nil)
	postJSON(t, ts, "/v1/slots/advance", nil, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	metrics := map[string]float64{}
	series := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %v", &name, &v); err != nil {
			t.Fatalf("unparseable metrics line %q: %v", line, err)
		}
		metrics[name] = v
		series[name]++
	}
	// Every counter of the status is exported exactly once, under the name
	// its metric tag declares and with its value; a counter without a tag,
	// or two counters sharing a name, fail here.
	st := s.Status()
	want := map[string]float64{
		"postcard_slot":                  float64(st.Slot),
		"postcard_cost_per_slot":         st.CostPerSlot,
		"postcard_total_cost":            st.TotalCost,
		"postcard_pending_files":         float64(st.PendingFiles),
		"postcard_plans":                 float64(st.Plans),
		"postcard_slots_advanced_total":  float64(st.SlotsAdvanced),
		"postcard_pricing_reloads_total": float64(st.Reloads),
	}
	expect := func(prefix string, v any) {
		telemetry.Walk(v, func(f reflect.StructField, x float64) {
			suffix, _, _ := strings.Cut(f.Tag.Get("metric"), ",")
			if suffix == "" {
				t.Errorf("counter %s has no metric tag", f.Name)
				return
			}
			if _, dup := want[prefix+suffix]; dup {
				t.Errorf("counter %s reuses series %s", f.Name, prefix+suffix)
			}
			want[prefix+suffix] = x
		})
	}
	expect("postcard_admission_", &st.Admission)
	expect("postcard_solver_", &st.Solver)
	for name, n := range series {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected series %s", name)
		} else if n != 1 {
			t.Errorf("series %s exported %d times", name, n)
		}
	}
	for name, v := range want {
		got, ok := metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if got != v {
			t.Errorf("metric %s = %v, want %v", name, got, v)
		}
	}
	if metrics["postcard_slot"] != 2 || metrics["postcard_admission_admits_total"] != 2 {
		t.Errorf("unexpected scrape: slot=%v admits=%v", metrics["postcard_slot"], metrics["postcard_admission_admits_total"])
	}
}

// TestServerSmoke is the end-to-end parity check: the identical workload
// trace is driven through the daemon over real HTTP (one POST per file,
// one advance per slot) and through the sequential sim.Fast scheduler on a
// separately built but identical network. Admission counters, solver
// counters, and the final committed cost must agree exactly — the HTTP
// pipeline adds nothing and loses nothing.
func TestServerSmoke(t *testing.T) {
	const dcs, slots, seed = 6, 8, 17
	const capacity = 200.0 // generous: no rejections, so file IDs stay aligned

	gen := func() *workload.Uniform {
		u, err := workload.NewUniform(workload.UniformConfig{
			NumDCs: dcs, MinFiles: 1, MaxFiles: 3,
			MinSizeGB: 5, MaxSizeGB: 40, MaxDeadline: 3, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	trace := workload.Record(gen(), slots)

	// Reference: sequential postcard-fast (admit batch, republish, take).
	refNW := testNetwork(t, dcs, capacity)
	refLedger, err := netmodel.NewLedger(refNW, netmodel.MaxCharging(slots))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run(refLedger, &sim.Fast{}, trace.Replay(), slots)
	if err != nil {
		t.Fatal(err)
	}
	if ref.DroppedFiles != 0 {
		t.Fatalf("reference run dropped %d files; raise capacity", ref.DroppedFiles)
	}

	// Daemon: same trace over HTTP. RepublishOnCommitOnly pins the solve
	// sequence to the reference's one-LP-per-slot schedule.
	s := testServer(t, Config{
		Network:               testNetwork(t, dcs, capacity),
		Charging:              netmodel.Charging{Q: 100, PeriodSlots: slots},
		RepublishOnCommitOnly: true,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	replay := trace.Replay()
	for slot := 0; slot < slots; slot++ {
		for _, f := range replay.FilesAt(slot) {
			var resp TransferResponse
			code := postJSON(t, ts, "/v1/transfers", TransferRequest{
				Src: int(f.Src), Dst: int(f.Dst), SizeGB: f.Size,
				Deadline: f.Deadline, Release: f.Release,
			}, &resp)
			if code != http.StatusOK || !resp.Admitted {
				t.Fatalf("slot %d file %d: code %d resp %+v", slot, f.ID, code, resp)
			}
			if resp.ID != f.ID {
				t.Fatalf("slot %d: server assigned ID %d, trace has %d", slot, resp.ID, f.ID)
			}
		}
		if code := postJSON(t, ts, "/v1/slots/advance", nil, nil); code != http.StatusOK {
			t.Fatalf("advance at slot %d: code %d", slot, code)
		}
	}

	st := s.Status()
	if st.Admission != ref.Solver.AdmissionStats {
		t.Errorf("admission counters: server %+v, reference %+v", st.Admission, ref.Solver.AdmissionStats)
	}
	// The daemon reports the admission counters under st.Admission; every
	// other solver counter must match the sequential run exactly.
	want := ref.Solver
	want.AdmissionStats = core.AdmissionStats{}
	if st.Solver != want {
		t.Errorf("solver counters:\nserver    %+v\nreference %+v", st.Solver, want)
	}
	if st.CostPerSlot != ref.FinalCostPerSlot {
		t.Errorf("final cost per slot: server %v, reference %v", st.CostPerSlot, ref.FinalCostPerSlot)
	}
}

// TestServerSnapshotRestart kills a server mid-horizon and restores it
// from its JSON snapshot: the remaining slots must commit bit-identical
// plans and costs versus the uninterrupted twin. Under the eager
// republisher, how many background republishes run depends on goroutine
// timing, so Republishes and RepublishDelta differ even between two
// uninterrupted twins; the full admission counters are compared only in
// commit-only mode, where the run is deterministic.
func TestServerSnapshotRestart(t *testing.T) {
	for _, commitOnly := range []bool{false, true} {
		name := "eager"
		if commitOnly {
			name = "commit-only"
		}
		t.Run(name, func(t *testing.T) { testSnapshotRestart(t, commitOnly) })
	}
}

func testSnapshotRestart(t *testing.T, commitOnly bool) {
	const dcs, cut, slots = 5, 4, 9
	const capacity = 150.0
	gen, err := workload.NewUniform(workload.UniformConfig{
		NumDCs: dcs, MinFiles: 1, MaxFiles: 3,
		MinSizeGB: 5, MaxSizeGB: 30, MaxDeadline: 3, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Record(gen, slots)

	newServer := func() *Server {
		return testServer(t, Config{
			Network:               testNetwork(t, dcs, capacity),
			Charging:              netmodel.Charging{Q: 100, PeriodSlots: slots},
			RepublishOnCommitOnly: commitOnly,
		})
	}
	drive := func(s *Server, from, to int) {
		t.Helper()
		replay := trace.Replay()
		for slot := 0; slot < to; slot++ {
			files := replay.FilesAt(slot)
			if slot < from {
				continue // already driven before the snapshot
			}
			for _, f := range files {
				resp, err := s.Admit(TransferRequest{
					Src: int(f.Src), Dst: int(f.Dst), SizeGB: f.Size,
					Deadline: f.Deadline, Release: f.Release,
				})
				if err != nil {
					t.Fatalf("slot %d: %v", slot, err)
				}
				if !resp.Admitted {
					t.Fatalf("slot %d: file rejected; raise capacity", slot)
				}
			}
			if _, err := s.AdvanceSlot(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Twin A runs uninterrupted.
	a := newServer()
	drive(a, 0, slots)

	// Twin B runs to the cut, snapshots to disk, and is restored.
	b1 := newServer()
	drive(b1, 0, cut)
	path := filepath.Join(t.TempDir(), "state.json")
	if err := b1.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	b2, err := RestoreFile(Config{RepublishOnCommitOnly: commitOnly}, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b2.Close() })
	drive(b2, cut, slots)

	sa, sb := a.Status(), b2.Status()
	if sa.CostPerSlot != sb.CostPerSlot || sa.TotalCost != sb.TotalCost {
		t.Errorf("cost diverged after restart: A %v/%v, B %v/%v", sa.CostPerSlot, sa.TotalCost, sb.CostPerSlot, sb.TotalCost)
	}
	ca, cb := sa.Admission, sb.Admission
	if !commitOnly {
		ca.Republishes, ca.RepublishDelta = 0, 0
		cb.Republishes, cb.RepublishDelta = 0, 0
	}
	if ca != cb {
		t.Errorf("admission counters diverged: A %+v, B %+v", sa.Admission, sb.Admission)
	}
	if sa.Slot != sb.Slot || sa.Plans != sb.Plans {
		t.Errorf("state diverged: A slot=%d plans=%d, B slot=%d plans=%d", sa.Slot, sa.Plans, sb.Slot, sb.Plans)
	}
	// Every committed per-file plan is identical.
	for id := 1; ; id++ {
		ra, oka := a.PlanByID(id)
		rb, okb := b2.PlanByID(id)
		if oka != okb {
			t.Fatalf("plan %d: present A=%v B=%v", id, oka, okb)
		}
		if !oka {
			break
		}
		if ra.Status != rb.Status || !reflect.DeepEqual(ra.Actions, rb.Actions) {
			t.Errorf("plan %d diverged after restart:\nA %+v\nB %+v", id, ra, rb)
		}
	}
	// The ledgers themselves are bit-identical.
	rawA, err := json.Marshal(a.Snapshot().Ledger)
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := json.Marshal(b2.Snapshot().Ledger)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Error("ledger snapshots differ after restart")
	}
}

// TestWriteSnapshotFailure pins the failure leg of the atomic snapshot
// write: when the snapshot cannot be published, WriteSnapshot reports the
// error and leaves no temporary file behind, and a later write to a good
// path still produces a snapshot that restores.
func TestWriteSnapshotFailure(t *testing.T) {
	s := testServer(t, Config{Network: testNetwork(t, 4, 100), Charging: netmodel.MaxCharging(16)})
	if _, err := s.Admit(TransferRequest{Src: 0, Dst: 2, SizeGB: 30, Deadline: 3}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	noTemp := func(path string) {
		t.Helper()
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s.tmp left behind (stat: %v)", path, err)
		}
	}
	// Publishing onto a directory fails at the rename; a missing parent
	// directory fails at creating the temporary file.
	taken := filepath.Join(dir, "taken")
	if err := os.Mkdir(taken, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{taken, filepath.Join(dir, "missing", "snap")} {
		if err := s.WriteSnapshot(bad); err == nil {
			t.Fatalf("WriteSnapshot(%s) succeeded", bad)
		}
		noTemp(bad)
	}
	good := filepath.Join(dir, "state.json")
	if err := s.WriteSnapshot(good); err != nil {
		t.Fatal(err)
	}
	noTemp(good)
	r, err := RestoreFile(Config{}, good)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

// TestServerDrain checks both shutdown policies with an open batch: the
// default commits it through the slot pipeline; DrainRollback discards it
// and releases every reservation.
func TestServerDrain(t *testing.T) {
	for _, rollback := range []bool{false, true} {
		name := "commit"
		if rollback {
			name = "rollback"
		}
		t.Run(name, func(t *testing.T) {
			s, err := New(Config{
				Network:       testNetwork(t, 4, 100),
				Charging:      netmodel.MaxCharging(16),
				DrainRollback: rollback,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Admit(TransferRequest{Src: 0, Dst: 2, SizeGB: 30, Deadline: 3}); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			res := s.ctrl.Reservations()
			if got := res.TotalReserved(); got != 0 {
				t.Errorf("reservations leaked through drain: %v", got)
			}
			cost := s.ledger.CostPerSlot()
			if rollback && cost != 0 {
				t.Errorf("rollback drain committed cost %v", cost)
			}
			if !rollback && cost == 0 {
				t.Error("commit drain left the ledger empty")
			}
			if err := s.Close(); err != nil {
				t.Errorf("second close: %v", err)
			}
			if _, err := s.Admit(TransferRequest{Src: 0, Dst: 1, SizeGB: 1, Deadline: 2}); err != errClosed {
				t.Errorf("admit after close: %v, want errClosed", err)
			}
		})
	}
}

// TestServerReloadPricing checks the SIGHUP backend: a price-only change
// applies and bumps the reload counter; topology or capacity changes are
// refused.
func TestServerReloadPricing(t *testing.T) {
	nw := testNetwork(t, 3, 50)
	s := testServer(t, Config{Network: nw, Charging: netmodel.MaxCharging(16)})

	inst := netmodel.InstanceOf(nw, nil)
	for i := range inst.Links {
		inst.Links[i].Price *= 2
	}
	if err := s.ReloadPricing(inst); err != nil {
		t.Fatalf("price-only reload: %v", err)
	}
	if s.Status().Reloads != 1 {
		t.Errorf("reloads = %d, want 1", s.Status().Reloads)
	}
	if got := nw.Price(0, 1); got != 2*workload.UniformPrices(3)(0, 1) {
		t.Errorf("price 0->1 = %v after doubling reload", got)
	}

	bad := netmodel.InstanceOf(nw, nil)
	bad.Links[0].Capacity += 1
	if err := s.ReloadPricing(bad); err == nil {
		t.Error("capacity change accepted")
	}
	bad2 := netmodel.InstanceOf(nw, nil)
	bad2.Links = bad2.Links[1:]
	if err := s.ReloadPricing(bad2); err == nil {
		t.Error("dropped link accepted")
	}
	bad3 := netmodel.InstanceOf(nw, nil)
	bad3.Datacenters++
	if err := s.ReloadPricing(bad3); err == nil {
		t.Error("datacenter count change accepted")
	}
}

// TestServerConcurrentTraffic hammers the daemon from many goroutines
// (admits, advances, scrapes, plan reads, and the solver lock's other
// holders: pricing reloads and snapshots) while the republisher solves in
// the background, to give the race detector something to chew on;
// invariants are re-checked at the end.
func TestServerConcurrentTraffic(t *testing.T) {
	nw := testNetwork(t, 5, 500)
	s := testServer(t, Config{Network: nw, Charging: netmodel.MaxCharging(64)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				switch k % 4 {
				case 0, 1:
					postJSON(t, ts, "/v1/transfers", TransferRequest{
						Src: w % 5, Dst: (w + 1 + k%3) % 5, SizeGB: 1, Deadline: 2,
					}, nil)
				case 2:
					getJSON(t, ts, "/v1/status", nil)
					resp, err := http.Get(ts.URL + "/metrics")
					if err == nil {
						resp.Body.Close()
					}
				case 3:
					getJSON(t, ts, fmt.Sprintf("/v1/plans/%d", 1+k), nil)
				}
			}
		}(w)
	}
	// One goroutine advances the clock concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 5; k++ {
			postJSON(t, ts, "/v1/slots/advance", nil, nil)
		}
	}()
	// One reprices every link back and forth, one snapshots: both read or
	// write what a solve in flight reads.
	wg.Add(2)
	go func() {
		defer wg.Done()
		inst := netmodel.InstanceOf(nw, nil)
		for k := 0; k < 6; k++ {
			factor := 2.0
			if k%2 == 1 {
				factor = 0.5
			}
			for i := range inst.Links {
				inst.Links[i].Price *= factor
			}
			if err := s.ReloadPricing(inst); err != nil {
				t.Errorf("reload %d: %v", k, err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; k < 6; k++ {
			if _, err := json.Marshal(s.Snapshot()); err != nil {
				t.Errorf("snapshot %d: %v", k, err)
			}
		}
	}()
	wg.Wait()
	if _, err := s.AdvanceSlot(); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.Reloads != 6 {
		t.Errorf("pricing reloads = %d, want 6", st.Reloads)
	}
	if st.Admission.Admits+st.Admission.Rejects != workers*10 {
		t.Errorf("decisions = %d, want %d", st.Admission.Admits+st.Admission.Rejects, workers*10)
	}
	if st.PendingFiles != 0 {
		t.Errorf("pending files after final advance: %d", st.PendingFiles)
	}
	verifyCommittedPlans(t, s)
}

// verifyCommittedPlans re-checks every committed record's actions against
// the independent schedule verifier's bookkeeping: amounts sum to the file
// size at the destination.
func verifyCommittedPlans(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.sortedPlanIDsLocked() {
		rec := s.plans[id]
		if rec.Status != StatusCommitted {
			continue
		}
		arrived := 0.0
		for _, a := range rec.Actions {
			if !a.IsHold() && a.To == rec.File.Dst {
				arrived += a.Amount
			}
		}
		if diff := arrived - rec.File.Size; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("file %d: %v GB arrived, size %v", id, arrived, rec.File.Size)
		}
	}
}
