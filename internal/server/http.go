package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"

	"github.com/interdc/postcard/internal/jsonio"
	"github.com/interdc/postcard/internal/telemetry"
)

// Handler returns the daemon's HTTP mux:
//
//	POST /v1/transfers      admit one transfer (synchronous fast-tier answer)
//	GET  /v1/plans/{id}     current plan record for one transfer
//	GET  /v1/status         aggregate state (slot, costs, counters)
//	POST /v1/slots/advance  close the current slot's batch and advance
//	POST /v1/snapshot       write a state snapshot to the configured path
//	GET  /metrics           Prometheus text exposition of every counter
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/transfers", s.handleTransfer)
	mux.HandleFunc("GET /v1/plans/{id}", s.handlePlan)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("POST /v1/slots/advance", s.handleAdvance)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// maxTransferBody bounds the POST /v1/transfers body; a TransferRequest is
// five numbers.
const maxTransferBody = 1 << 20

// maxHorizon bounds how far ahead of the current slot a transfer may end:
// its release offset plus its deadline, in slots. The fast tier's path
// search, link estimates and reservation view work and allocate in
// proportion to that span under the admit lock, and the batch LP's
// time-expanded graph is that many layers deep; its solve time grows much
// faster than the span (one file on 4 DCs, warm solver, one core of a
// 2-vCPU x86-64 VM: 1 ms at 8 slots, 38 ms at 64, 3 s at 256).
// Server.Admit refuses anything longer. 64 slots is eight times the
// longest deadline the paper's evaluation draws.
const maxHorizon = 64

func (s *Server) handleTransfer(w http.ResponseWriter, r *http.Request) {
	var req TransferRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxTransferBody))
	dec.DisallowUnknownFields()
	if err := jsonio.DecodeOne(dec, &req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("decoding request: %w", err))
		return
	}
	resp, err := s.Admit(req)
	if err != nil {
		code := http.StatusBadRequest
		if err == errClosed {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	code := http.StatusOK
	if !resp.Admitted {
		// The reject certificate travels in the body; 422 distinguishes
		// "understood but not admissible" from transport-level errors.
		code = http.StatusUnprocessableEntity
	}
	writeJSON(w, code, resp)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad plan id %q", r.PathValue("id")))
		return
	}
	rec, ok := s.PlanByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no plan for file %d", id))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

func (s *Server) handleAdvance(w http.ResponseWriter, _ *http.Request) {
	slot, err := s.AdvanceSlot()
	if err != nil {
		code := http.StatusInternalServerError
		if err == errClosed {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Slot int `json:"slot"`
	}{slot})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	path := s.cfg.SnapshotPath
	if path == "" {
		writeError(w, http.StatusConflict, fmt.Errorf("no snapshot path configured"))
		return
	}
	if err := s.WriteSnapshot(path); err != nil {
		code := http.StatusInternalServerError
		if err == errClosed {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Path string `json:"path"`
	}{path})
}

// handleMetrics renders every admission and solver counter, plus the
// server gauges, in Prometheus text exposition format. The counter series
// come from the metric tags of admission.Stats and core.SolveStats (see
// internal/telemetry), so a scrape diffed against a postcard-fast
// simulation run compares exactly.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	st := s.statusLocked()
	s.mu.Unlock()

	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}
	counters := func(prefix string, v any) {
		telemetry.Walk(v, func(f reflect.StructField, x float64) {
			name, help, _ := strings.Cut(f.Tag.Get("metric"), ",")
			counter(prefix+name, help, x)
		})
	}

	gauge("postcard_slot", "Current admission slot.", float64(st.Slot))
	gauge("postcard_cost_per_slot", "Committed ledger cost per charging interval.", st.CostPerSlot)
	gauge("postcard_total_cost", "Committed ledger cost over the charging period.", st.TotalCost)
	gauge("postcard_pending_files", "Files admitted into the open batch.", float64(st.PendingFiles))
	gauge("postcard_plans", "Plan records retained (provisional plus committed).", float64(st.Plans))
	counter("postcard_slots_advanced_total", "Slot batches committed.", float64(st.SlotsAdvanced))
	counter("postcard_pricing_reloads_total", "Pricing reloads applied.", float64(st.Reloads))
	counters("postcard_admission_", &st.Admission)
	counters("postcard_solver_", &st.Solver)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
