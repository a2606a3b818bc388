package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
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

func (s *Server) handleTransfer(w http.ResponseWriter, r *http.Request) {
	var req TransferRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxTransferBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
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
// server gauges, in Prometheus text exposition format. The counter set
// mirrors core.SolveStats and admission.Stats field for field, so a
// scrape diffed against a postcard-fast simulation run compares exactly.
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

	gauge("postcard_slot", "Current admission slot.", float64(st.Slot))
	gauge("postcard_cost_per_slot", "Committed ledger cost per charging interval.", st.CostPerSlot)
	gauge("postcard_total_cost", "Committed ledger cost over the charging period.", st.TotalCost)
	gauge("postcard_pending_files", "Files admitted into the open batch.", float64(st.PendingFiles))
	gauge("postcard_plans", "Plan records retained (provisional plus committed).", float64(st.Plans))
	counter("postcard_slots_advanced_total", "Slot batches committed.", float64(st.SlotsAdvanced))
	counter("postcard_pricing_reloads_total", "Pricing reloads applied.", float64(st.Reloads))

	a := st.Admission
	counter("postcard_admission_admits_total", "Fast-path admissions.", float64(a.Admits))
	counter("postcard_admission_rejects_total", "Fast-path rejections.", float64(a.Rejects))
	counter("postcard_admission_republishes_total", "Batches improved by the LP republisher.", float64(a.Republishes))
	counter("postcard_admission_fast_cost_total", "Provisional cost per slot committed by taken batches.", a.FastCost)
	counter("postcard_admission_republish_delta_total", "Cost per slot shaved off provisional plans by republishing.", a.RepublishDelta)

	v := st.Solver
	counter("postcard_solver_solves_total", "LP solves.", float64(v.Solves))
	counter("postcard_solver_warm_solves_total", "LP solves that accepted a mapped warm basis.", float64(v.WarmSolves))
	counter("postcard_solver_graph_reuses_total", "Time-expanded graphs recycled across slots.", float64(v.GraphReuses))
	counter("postcard_solver_iterations_total", "Simplex iterations.", float64(v.Iterations))
	counter("postcard_solver_phase1_iterations_total", "Phase-1 simplex iterations.", float64(v.Phase1Iter))
	counter("postcard_solver_presolve_cols_total", "Columns removed by presolve.", float64(v.PresolveCols))
	counter("postcard_solver_presolve_rows_total", "Rows removed by presolve.", float64(v.PresolveRows))
	counter("postcard_solver_sparse_solves_total", "Sparse FTRAN/BTRAN basis solves.", float64(v.SparseSolves))
	counter("postcard_solver_dense_solves_total", "Dense basis solves.", float64(v.DenseSolves))
	counter("postcard_solver_solve_nnz_total", "Nonzeros across basis solve results.", float64(v.SolveNNZ))
	counter("postcard_solver_solve_dim_total", "Dimensions across basis solve results.", float64(v.SolveDim))
	counter("postcard_solver_devex_resets_total", "Devex pricing reference resets.", float64(v.DevexResets))
	counter("postcard_solver_dual_recomputes_total", "Full dual recomputations.", float64(v.DualRecomputes))
	counter("postcard_solver_var_universe_total", "Variables in the pre-pruning universes.", float64(v.VarUniverse))
	counter("postcard_solver_pruned_vars_total", "Variables removed by deadline-reachability pruning.", float64(v.PrunedVars))
	counter("postcard_solver_pruned_rows_total", "Rows removed by deadline-reachability pruning.", float64(v.PrunedRows))
	counter("postcard_solver_colgen_rounds_total", "Delayed column generation rounds.", float64(v.ColGenRounds))
	counter("postcard_solver_colgen_columns_total", "Columns materialized by delayed generation.", float64(v.ColGenColumns))
	counter("postcard_solver_colgen_universe_total", "Delayed columns across generation-enabled solves.", float64(v.ColGenUniverse))
	counter("postcard_solver_colgen_rows_total", "Rows lazily appended alongside generated columns.", float64(v.ColGenRows))
	counter("postcard_solver_path_solves_total", "Solves served by the Dantzig-Wolfe path master.", float64(v.PathSolves))
	counter("postcard_solver_path_fallbacks_total", "Path-master solves that fell back to the arc model.", float64(v.PathFallbacks))
	counter("postcard_solver_path_recycled_total", "Path columns recycled from earlier slots' optimal bases.", float64(v.PathRecycled))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
