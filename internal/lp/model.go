// Package lp provides linear-programming modeling and solving with no
// dependencies outside the standard library. It exists because Postcard's
// per-slot optimization (and both of the paper's baselines) are linear
// programs, and the Go ecosystem offers no stdlib LP support.
//
// Solve is a sparse bounded-variable revised simplex (two-phase, LU basis
// factorization with eta updates) that scales to the time-expanded graphs
// of the paper's evaluation.
//
// Models are built incrementally with AddVariable and AddConstraint. Solve
// leaves the variables and constraints as they are but keeps its workspace
// in the Model for the next solve. Variables carry lower/upper bounds (use
// math.Inf(±1) for unbounded) and objective coefficients.
package lp

import (
	"fmt"
	"math"
)

// Sense is the relational sense of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota + 1 // a·x ≤ rhs
	GE                  // a·x ≥ rhs
	EQ                  // a·x = rhs
)

// String renders the sense as its mathematical symbol.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal    Status = iota + 1 // an optimal solution was found
	Infeasible                   // no point satisfies all constraints
	Unbounded                    // the objective is unbounded over the feasible set
	IterLimit                    // the iteration budget was exhausted
)

// String renders the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// VarID identifies a variable within a Model.
type VarID int

// ConID identifies a constraint within a Model.
type ConID int

type row struct {
	idx   []int
	val   []float64
	sense Sense
	rhs   float64
}

// Model is a linear program under construction. The zero value is an empty
// minimization model ready for use.
type Model struct {
	maximize bool
	obj      []float64
	lo       []float64
	hi       []float64
	names    []string
	rows     []row

	// Duplicate-merge scratch for AddConstraint: stamp[j] == epoch marks
	// variable j as already present in the row under construction, pos[j]
	// holds its position there. Retained across calls (and across Reset) so
	// steady-state constraint assembly allocates nothing.
	stamp []int
	pos   []int
	epoch int

	// workspace is the simplex state of the last successful solve (see
	// Solve), kept like stamp/pos across edits and Reset.
	workspace *simplex
}

// NewModel returns an empty minimization model.
func NewModel() *Model { return &Model{} }

// Reset empties the model in place, retaining every backing allocation
// (variable arrays, constraint rows and their coefficient slices, the
// duplicate-merge scratch) so the next build of a similarly sized model
// allocates little to nothing. Incremental per-slot solvers use it to
// recycle one Model across consecutive LP constructions.
func (m *Model) Reset() {
	m.maximize = false
	m.obj = m.obj[:0]
	m.lo = m.lo[:0]
	m.hi = m.hi[:0]
	m.names = m.names[:0]
	m.rows = m.rows[:0]
}

// SetMaximize switches the objective direction to maximization.
func (m *Model) SetMaximize() { m.maximize = true }

// NumVariables reports the number of variables added so far.
func (m *Model) NumVariables() int { return len(m.obj) }

// NumConstraints reports the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.rows) }

// AddVariable adds a variable with bounds [lo, hi] and the given objective
// coefficient, returning its identifier. Use math.Inf(-1) and math.Inf(1)
// for free directions. name is used only in diagnostics and may be empty.
func (m *Model) AddVariable(lo, hi, obj float64, name string) VarID {
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	m.obj = append(m.obj, obj)
	m.names = append(m.names, name)
	return VarID(len(m.obj) - 1)
}

// VarName reports the diagnostic name of v, or "x<id>" when none was given.
func (m *Model) VarName(v VarID) string {
	if int(v) < len(m.names) && m.names[v] != "" {
		return m.names[v]
	}
	return fmt.Sprintf("x%d", int(v))
}

// AddConstraint adds the linear constraint sum(val[i]*x[idx[i]]) sense rhs.
// The idx/val slices are copied. Duplicate variable references within one
// constraint are summed (first-mention order). It returns an error for
// malformed input.
func (m *Model) AddConstraint(sense Sense, rhs float64, idx []VarID, val []float64) (ConID, error) {
	if len(idx) != len(val) {
		return 0, fmt.Errorf("lp: constraint has %d indices but %d values", len(idx), len(val))
	}
	if sense != LE && sense != GE && sense != EQ {
		return 0, fmt.Errorf("lp: invalid sense %v", sense)
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return 0, fmt.Errorf("lp: invalid rhs %v", rhs)
	}
	for i, v := range idx {
		if int(v) < 0 || int(v) >= len(m.obj) {
			return 0, fmt.Errorf("lp: constraint references unknown variable %d", int(v))
		}
		if math.IsNaN(val[i]) || math.IsInf(val[i], 0) {
			return 0, fmt.Errorf("lp: invalid coefficient %v for variable %d", val[i], int(v))
		}
	}
	// Reuse a previously allocated row slot (and its coefficient slices)
	// when extending within capacity, so a Reset model rebuilds without
	// per-row allocations.
	var r *row
	if len(m.rows) < cap(m.rows) {
		m.rows = m.rows[:len(m.rows)+1]
		r = &m.rows[len(m.rows)-1]
		r.idx = r.idx[:0]
		r.val = r.val[:0]
	} else {
		m.rows = append(m.rows, row{})
		r = &m.rows[len(m.rows)-1]
	}
	r.sense, r.rhs = sense, rhs
	if len(m.stamp) < len(m.obj) {
		m.stamp = append(m.stamp, make([]int, len(m.obj)-len(m.stamp))...)
		m.pos = append(m.pos, make([]int, len(m.obj)-len(m.pos))...)
	}
	m.epoch++
	for i, v := range idx {
		j := int(v)
		if m.stamp[j] == m.epoch {
			r.val[m.pos[j]] += val[i]
			continue
		}
		m.stamp[j] = m.epoch
		m.pos[j] = len(r.idx)
		r.idx = append(r.idx, j)
		r.val = append(r.val, val[i])
	}
	return ConID(len(m.rows) - 1), nil
}

// ReserveRow grows constraint c's coefficient storage to hold at least
// total entries without reallocating. Column generation appends entries to
// existing rows one column at a time (AddColumn); a builder that knows the
// row's full variable-universe support can reserve it up front so the
// per-column appends never reallocate. The row's current entries are kept.
func (m *Model) ReserveRow(c ConID, total int) {
	if int(c) < 0 || int(c) >= len(m.rows) {
		return
	}
	r := &m.rows[c]
	if cap(r.idx) >= total {
		return
	}
	idx := make([]int, len(r.idx), total)
	val := make([]float64, len(r.val), total)
	copy(idx, r.idx)
	copy(val, r.val)
	r.idx, r.val = idx, val
}

// AddColumn appends a variable together with its constraint coefficients:
// the new column gets bounds [lo, hi], objective coefficient obj, and the
// entry coef[i] in existing row cons[i]. This is the delayed-column path of
// column generation — the row set is fixed up front and priced-out columns
// are grafted onto it between solves. The cons entries must be distinct.
func (m *Model) AddColumn(lo, hi, obj float64, name string, cons []ConID, coef []float64) (VarID, error) {
	if len(cons) != len(coef) {
		return 0, fmt.Errorf("lp: column has %d rows but %d coefficients", len(cons), len(coef))
	}
	for i, c := range cons {
		if int(c) < 0 || int(c) >= len(m.rows) {
			return 0, fmt.Errorf("lp: column references unknown constraint %d", int(c))
		}
		if math.IsNaN(coef[i]) || math.IsInf(coef[i], 0) {
			return 0, fmt.Errorf("lp: invalid coefficient %v for constraint %d", coef[i], int(c))
		}
		for p := 0; p < i; p++ {
			if cons[p] == c {
				return 0, fmt.Errorf("lp: column references constraint %d twice", int(c))
			}
		}
	}
	v := m.AddVariable(lo, hi, obj, name)
	for i, c := range cons {
		r := &m.rows[c]
		r.idx = append(r.idx, int(v))
		r.val = append(r.val, coef[i])
	}
	return v, nil
}

// Work holds the solver's work counters. It is the one declaration of each
// LP counter: the simplex increments these fields directly, SolvePriced sums
// them over its rounds with telemetry.Add, and every layer above embeds Work
// instead of copying it field by field. The metric tag names the counter's
// Prometheus series suffix and help text (see internal/telemetry).
type Work struct {
	// Iterations counts simplex iterations across both phases; Phase1Iter
	// the share spent reaching feasibility.
	Iterations int `metric:"iterations_total,Simplex iterations."`
	Phase1Iter int `metric:"phase1_iterations_total,Phase-1 simplex iterations."`
	// SparseSolves and DenseSolves count the basis triangular solves (FTRAN
	// of entering columns, BTRAN of pivot-row unit vectors and phase-1 cost
	// corrections, and right-hand-side solves) that took the hyper-sparse
	// Gilbert-Peierls pattern path versus the dense substitution fallback.
	SparseSolves int `metric:"sparse_solves_total,Sparse FTRAN/BTRAN basis solves."`
	DenseSolves  int `metric:"dense_solves_total,Dense basis solves."`
	// SolveNNZ totals the result-pattern sizes of those solves (a dense
	// fallback counts the full basis dimension) and SolveDim totals the
	// basis dimensions they ran against, so the aggregate result density is
	// SolveNNZ/SolveDim. Both are integers — aggregation across solves,
	// slots and runs is exact and order-independent.
	SolveNNZ int `metric:"solve_nnz_total,Nonzeros across basis solve results."`
	SolveDim int `metric:"solve_dim_total,Dimensions across basis solve results."`
	// DevexResets counts resets of the devex reference framework (weights
	// back to one), which happen whenever the reduced costs are recomputed
	// from scratch: refactorizations, phase switches, and Bland episodes.
	DevexResets int `metric:"devex_resets_total,Devex pricing reference resets."`
	// DualRecomputes counts full recomputations of the maintained
	// reduced-cost vector — the periodic honest recompute that bounds the
	// drift of the incremental per-pivot updates.
	DualRecomputes int `metric:"dual_recomputes_total,Full dual recomputations."`
	// Refactorizations counts LU factorizations of the basis actually run.
	// A refactorization requested when nothing has changed since the last
	// one (no pivot, no bound flip, no repair) is skipped and not counted.
	Refactorizations int `metric:"refactorizations_total,Basis LU factorizations run."`
	// ColGenRounds, ColGenColumns, ColGenRows and ColGenUniverse are filled
	// by SolvePriced: the number of restricted-master solves performed, the
	// number of delayed columns materialized into the model, the number of
	// rows the oracle created lazily alongside them (zero for an oracle whose
	// columns only touch rows the restriction already has), and the size of
	// the delayed universe that was priced. All zero for a plain Solve.
	ColGenRounds   int `metric:"colgen_rounds_total,Delayed column generation rounds."`
	ColGenColumns  int `metric:"colgen_columns_total,Columns materialized by delayed generation."`
	ColGenRows     int `metric:"colgen_rows_total,Rows lazily appended alongside generated columns."`
	ColGenUniverse int `metric:"colgen_universe_total,Delayed columns across generation-enabled solves."`
}

// Solution is the result of solving a Model.
type Solution struct {
	Status     Status
	Objective  float64   // objective value in the model's own direction
	X          []float64 // primal values, one per variable
	Dual       []float64 // dual values, one per constraint (minimization sign convention)
	ReducedObj []float64 // reduced costs, one per variable (minimization sign convention)

	// Basis is the final simplex resting state, suitable for seeding a
	// subsequent solve via Options.InitialBasis. It is captured for every
	// solve that ran the simplex (including infeasible ones, whose basis
	// still warm-starts a relaxed retry).
	Basis *Basis
	// WarmStarted reports whether the solve actually started from
	// Options.InitialBasis (false when the snapshot was rejected and the
	// solver fell back to a cold start).
	WarmStarted bool

	Work
}

// Value reports the primal value of v.
func (s *Solution) Value(v VarID) float64 { return s.X[v] }

// Solver tolerances. They are fixed: every caller solves with these values.
const (
	feasTol  = 1e-7 // primal feasibility tolerance
	optTol   = 1e-7 // dual feasibility (optimality) tolerance
	pivotTol = 1e-8 // minimum acceptable pivot magnitude
)

// Options controls the simplex solver. The zero value selects defaults.
type Options struct {
	// InitialBasis, when non-nil, seeds the simplex with a previously
	// captured basis snapshot (Solution.Basis), skipping most of phase 1
	// when the snapshot is close to optimal for the new data. A snapshot
	// that does not fit the model or factorizes singular is silently
	// ignored and the solve cold-starts; correctness never depends on the
	// snapshot's quality.
	InitialBasis *Basis

	// The fields below are set only by this package's tests; zero selects
	// the default.
	maxIterations int // default 50000 + 20*(rows+cols)
	refactorEvery int // eta updates between refactorizations, default 32
	// perturb is the relative magnitude of the deterministic cost
	// perturbation applied to fight degeneracy (network LPs stall badly
	// without it). The reported objective always uses the unperturbed
	// costs. Default 1e-7; negative disables it.
	perturb float64
}

func (o *Options) withDefaults(rows, cols int) Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.maxIterations <= 0 {
		out.maxIterations = 50000 + 20*(rows+cols)
	}
	if out.refactorEvery <= 0 {
		out.refactorEvery = 32
	}
	if out.perturb == 0 {
		out.perturb = 1e-7
	}
	if out.perturb < 0 {
		out.perturb = 0
	}
	return out
}

// Validate checks a primal point for feasibility against the model within
// tol, returning a descriptive error for the first violation found. It is
// used by tests and by schedule verifiers.
func (m *Model) Validate(x []float64, tol float64) error {
	if len(x) != len(m.obj) {
		return fmt.Errorf("lp: point has %d values for %d variables", len(x), len(m.obj))
	}
	for j := range x {
		if x[j] < m.lo[j]-tol || x[j] > m.hi[j]+tol {
			return fmt.Errorf("lp: variable %s = %g outside bounds [%g, %g]",
				m.VarName(VarID(j)), x[j], m.lo[j], m.hi[j])
		}
	}
	for i, r := range m.rows {
		lhs := 0.0
		for p, j := range r.idx {
			lhs += r.val[p] * x[j]
		}
		scale := 1.0 + math.Abs(r.rhs)
		switch r.sense {
		case LE:
			if lhs > r.rhs+tol*scale {
				return fmt.Errorf("lp: constraint %d violated: %g <= %g", i, lhs, r.rhs)
			}
		case GE:
			if lhs < r.rhs-tol*scale {
				return fmt.Errorf("lp: constraint %d violated: %g >= %g", i, lhs, r.rhs)
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > tol*scale {
				return fmt.Errorf("lp: constraint %d violated: %g = %g", i, lhs, r.rhs)
			}
		}
	}
	return nil
}

// ObjectiveValue evaluates the model's objective at x in the model's own
// optimization direction.
func (m *Model) ObjectiveValue(x []float64) float64 {
	v := 0.0
	for j, c := range m.obj {
		v += c * x[j]
	}
	return v
}
