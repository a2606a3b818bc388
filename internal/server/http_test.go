package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/interdc/postcard/internal/netmodel"
)

// TestServerHorizonBound checks that a transfer reaching past maxHorizon is
// refused with 400 before the fast tier sees it: the answer is quick, the
// daemon allocates next to nothing for it, and no state moves. A transfer
// ending exactly at the horizon still admits.
func TestServerHorizonBound(t *testing.T) {
	s := testServer(t, Config{Network: testNetwork(t, 4, 100), Charging: netmodel.MaxCharging(16)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := s.Status()
	for _, req := range []TransferRequest{
		{Src: 0, Dst: 1, SizeGB: 5, Deadline: 1 << 40},
		{Src: 0, Dst: 1, SizeGB: 5, Deadline: 2, Release: 1 << 40},
		{Src: 0, Dst: 1, SizeGB: 5, Deadline: 1 << 40, Release: 1 << 40},
		{Src: 0, Dst: 1, SizeGB: 5, Deadline: maxHorizon + 1},
		{Src: 0, Dst: 1, SizeGB: 5, Deadline: 2, Release: maxHorizon - 1},
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		code := postJSON(t, ts, "/v1/transfers", req, nil)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if code != http.StatusBadRequest {
			t.Errorf("%+v: code %d, want 400", req, code)
		}
		if elapsed > time.Second {
			t.Errorf("%+v: refused after %v", req, elapsed)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%+v: refusing it allocated %d bytes", req, alloc)
		}
	}
	if after := s.Status(); !reflect.DeepEqual(before, after) || s.nextID != 1 {
		t.Errorf("refused transfers moved the daemon's state:\nbefore %+v\nafter  %+v", before, after)
	}

	var resp TransferResponse
	edge := TransferRequest{Src: 0, Dst: 1, SizeGB: 5, Deadline: 2, Release: maxHorizon - 2}
	if code := postJSON(t, ts, "/v1/transfers", edge, &resp); code != http.StatusOK || !resp.Admitted {
		t.Errorf("transfer ending at the horizon: code %d, %+v", code, resp)
	}
}

// FuzzTransferRequest drives POST /v1/transfers with hostile bodies: zero,
// NaN, infinite and huge sizes, src = dst, out-of-range datacenters,
// non-positive or huge deadlines, huge releases, malformed JSON, data after
// the request object and bodies past the size limit. The answer must be one
// of the four the route documents, a 200 or 422 only for a body holding
// exactly one JSON value, and anything but 200 must leave no reservation
// and no plan record behind.
func FuzzTransferRequest(f *testing.F) {
	f.Add(0, 1, 5.0, 2, 0, "", false)
	f.Add(0, 1, 0.0, 2, 0, "", false)
	f.Add(0, 1, 1e308, 2, 0, "", false)
	f.Add(2, 2, 5.0, 2, 0, "", false)
	f.Add(0, 9, 5.0, 2, 0, "", false)
	f.Add(0, 1, 5.0, 0, 0, "", false)
	f.Add(0, 1, 5.0, -3, 0, "", false)
	f.Add(0, 1, 5.0, 1<<40, 0, "", false)
	f.Add(0, 1, 5.0, 2, 1<<40, "", false)
	f.Add(0, 1, 5.0, 2, -1, "", false)
	f.Add(0, 0, 0.0, 0, 0, `{"src":0,"dst":1,"size_gb":NaN,"deadline":2}`, false)
	f.Add(0, 0, 0.0, 0, 0, `{"src":0,"dst":1,"size_gb":1e999,"deadline":2}`, false)
	f.Add(0, 0, 0.0, 0, 0, `{"src":0,"dst":1,"size_gb":5,"deadline":2,"x":1}`, false)
	f.Add(0, 0, 0.0, 0, 0, `[`, false)
	f.Add(0, 0, 0.0, 0, 0, `{"src":0,"dst":1,"size_gb":5,"deadline":2}{"src":0,"dst":1,"size_gb":5,"deadline":2}`, false)
	f.Add(0, 0, 0.0, 0, 0, `{"src":0,"dst":1,"size_gb":5,"deadline":2} not json`, false)
	f.Add(0, 0, 0.0, 0, 0, `{"src":0,"dst":1,"size_gb":5,"deadline":2}}`, false)
	f.Add(0, 1, 5.0, 2, 0, "", true)
	f.Fuzz(func(t *testing.T, src, dst int, size float64, deadline, release int, raw string, oversize bool) {
		s, err := New(Config{
			Network:       testNetwork(t, 4, 100),
			Charging:      netmodel.MaxCharging(16),
			NoRepublish:   true,
			DrainRollback: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		body := raw
		if body == "" {
			body = `{"src":` + strconv.Itoa(src) + `,"dst":` + strconv.Itoa(dst) +
				`,"size_gb":` + strconv.FormatFloat(size, 'g', -1, 64) +
				`,"deadline":` + strconv.Itoa(deadline) + `,"release":` + strconv.Itoa(release) + `}`
		}
		if oversize {
			// Leading whitespace the decoder must read through.
			body = strings.Repeat(" ", maxTransferBody) + body
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/transfers", strings.NewReader(body)))

		shown := strings.TrimSpace(body)
		if (rec.Code == http.StatusOK || rec.Code == http.StatusUnprocessableEntity) && !json.Valid([]byte(body)) {
			t.Errorf("code %d for %q, which is not one JSON value", rec.Code, shown)
		}
		switch rec.Code {
		case http.StatusOK:
			if len(s.plans) != 1 || s.ctrl.Reservations().TotalReserved() <= 0 {
				t.Errorf("200 for %q left %d plan records, %v GB reserved",
					shown, len(s.plans), s.ctrl.Reservations().TotalReserved())
			}
		case http.StatusUnprocessableEntity, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if len(s.plans) != 0 || s.ctrl.Reservations().TotalReserved() != 0 {
				t.Errorf("%d for %q left %d plan records, %v GB reserved",
					rec.Code, shown, len(s.plans), s.ctrl.Reservations().TotalReserved())
			}
		default:
			t.Errorf("code %d for %q: %s", rec.Code, shown, rec.Body)
		}
	})
}
