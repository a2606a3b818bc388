package lp

import "github.com/interdc/postcard/internal/telemetry"

// PricingOracle is the delayed-generation contract behind SolvePriced. The
// oracle owns the whole pricing round: given the duals of a solved
// restriction it decides which columns enter, appends any rows those
// columns need first (lazily created capacity or charging rows a path
// column crosses), and reports how much the model grew so the driver can
// extend the warm-start basis. The universe may be explicit — a list of
// delayed arc columns whose rows all exist, priced one by one — or
// implicit: a Dantzig–Wolfe path oracle prices exponentially many
// source→deadline paths through a shortest-path subproblem without ever
// enumerating them, and may fan the per-commodity subproblems across
// worker goroutines, as long as the materialization it performs is
// deterministic for given duals.
type PricingOracle interface {
	// Universe reports the size of the delayed universe being priced — the
	// number of explicit delayed candidates, or the size of the implicit
	// variable space a decomposition prices by subproblem. It is fixed for
	// the life of a SolvePriced call; zero means there is nothing to price
	// and the restriction already is the full model.
	Universe() int

	// PriceBatch runs one pricing round against the row duals y (indexed by
	// ConID, minimization sign convention; rows the restriction does not
	// contain have dual zero by construction). The oracle materializes the
	// columns it selects — every column with reduced cost below -tol it
	// wants to enter this round, possibly capped by an internal batch
	// policy — appending required new rows before the columns that
	// reference them, and returns how many columns and rows it added.
	// cols == 0 reports the universe priced out: no delayed column is
	// attractive under y, so the restriction's optimum is the full model's.
	PriceBatch(m *Model, y []float64, tol float64) (cols, rows int, err error)

	// MaterializeRest materializes every remaining delayed column at once.
	// The driver calls it when the restriction is infeasible — an infeasible
	// restriction proves nothing about the full model, and an infeasible
	// simplex exposes no duals to price against — so that the subsequent
	// re-solve delivers a full-model verdict. Oracles over an implicit
	// universe that cannot be exhausted return ok == false; the driver then
	// returns the infeasible solution as-is and the caller must treat it as
	// a restricted (not full-model) verdict. Oracles that keep their
	// restriction feasible by construction (e.g. with artificial columns)
	// never see this call.
	MaterializeRest(m *Model) (cols, rows int, ok bool, err error)
}

// SolvePriced solves the full model implied by m plus the oracle's delayed
// universe by column generation: solve the restricted master, hand the
// optimal duals to the oracle, extend the warm-start basis by whatever the
// oracle materialized (new columns resting at their lower bound, new rows'
// logicals basic), and repeat until the oracle reports the universe priced
// out. Appending new rows with basic logicals is safe precisely because
// rows are created lazily on first use: every column already materialized
// has a zero coefficient in a row created after it, so the row's activity
// at the current basic point comes only from pre-existing columns the
// oracle verified slack — the extended snapshot stays primal feasible and
// the re-solve resumes from dual pricing instead of phase 1. At that point
// the restricted optimum is the full model's: the duals certify dual
// feasibility of every column, materialized or not. An oracle whose
// Universe is zero is never consulted; m is solved as it stands.
//
// An infeasible restriction hands the oracle MaterializeRest and re-solves
// warm from the phase-1 basis, so an oracle that can exhaust its universe
// gives full-model infeasibility verdicts. Unbounded and iteration-limited
// outcomes return as-is (a ray of the
// restriction is a ray of the full model). The returned Solution aggregates
// work counters across all rounds and describes the generation itself in
// ColGenRounds, ColGenColumns, ColGenRows and ColGenUniverse.
func SolvePriced(m *Model, oracle PricingOracle, opts *Options) (*Solution, error) {
	universe := oracle.Universe()
	if universe == 0 {
		return m.Solve(opts)
	}
	cur := Options{}
	if opts != nil {
		cur = *opts
	}
	var work Work
	warmStarted := false
	for {
		sol, err := m.Solve(&cur)
		if err != nil {
			return nil, err
		}
		telemetry.Add(&work, sol.Work)
		work.ColGenRounds++
		if work.ColGenRounds == 1 {
			warmStarted = sol.WarmStarted
		}
		done := false
		switch sol.Status {
		case Optimal:
			cols, rows, err := oracle.PriceBatch(m, sol.Dual, optTol)
			if err != nil {
				return nil, err
			}
			if cols == 0 {
				done = true
				break
			}
			work.ColGenColumns += cols
			work.ColGenRows += rows
			cur.InitialBasis = extendBasis(sol.Basis, cols, rows)
		case Infeasible:
			cols, rows, ok, err := oracle.MaterializeRest(m)
			if err != nil {
				return nil, err
			}
			if !ok || cols+rows == 0 {
				done = true
				break
			}
			work.ColGenColumns += cols
			work.ColGenRows += rows
			cur.InitialBasis = extendBasis(sol.Basis, cols, rows)
		default:
			done = true
		}
		if done {
			work.ColGenUniverse = universe
			sol.Work = work
			sol.WarmStarted = warmStarted
			return sol, nil
		}
	}
}

// extendBasis grows a basis snapshot by extraCols structural columns resting
// at their lower bound and extraRows constraints whose logicals enter basic.
// New columns at their bound contribute nothing, and a lazily created row's
// activity comes only from columns materialized before it (later columns
// have zero coefficients there), which the oracle guarantees leave it slack
// — so the implied basic point is the restriction's own and stays primal
// feasible, letting the re-solve skip phase 1. The basic count grows by
// exactly extraRows, matching the extended model's row count.
func extendBasis(b *Basis, extraCols, extraRows int) *Basis {
	if b == nil {
		return nil
	}
	out := &Basis{
		NumVars: b.NumVars + extraCols,
		NumRows: b.NumRows + extraRows,
		Status:  make([]BasisStatus, 0, len(b.Status)+extraCols+extraRows),
	}
	out.Status = append(out.Status, b.Status[:b.NumVars]...)
	for i := 0; i < extraCols; i++ {
		out.Status = append(out.Status, BasisAtLower)
	}
	out.Status = append(out.Status, b.Status[b.NumVars:]...)
	for i := 0; i < extraRows; i++ {
		out.Status = append(out.Status, BasisBasic)
	}
	return out
}
