package lp

import "math"

// The presolve pass shrinks a model before the simplex runs and carries a
// postsolve map so the returned Solution — primal values, duals, reduced
// costs and the warm-start Basis — is expressed in the original model's
// variables and constraints. Three families of reductions run to a
// fixpoint:
//
//   - fixed columns (lo == hi) are substituted into rows and the objective,
//   - singleton rows (one active variable) are folded into that variable's
//     bounds and dropped,
//   - vacuous rows (no active variables) are checked for consistency and
//     dropped, and columns with no active rows are fixed at their
//     cost-minimizing finite bound.
//
// The reductions are deliberately conservative: anything presolve cannot
// prove is left for the simplex, and a column whose cost-improving
// direction is unbounded is kept so the solver itself certifies
// unboundedness against a feasible point.

// singletonFold records one singleton row folded into a variable bound,
// kept for postsolve dual attribution.
type singletonFold struct {
	row     int     // original row index
	col     int     // original column index
	coef    float64 // the row's coefficient on col
	bound   float64 // folded bound value rhs'/coef
	isUpper bool    // folded an upper bound (else a lower bound)
	both    bool    // EQ row: folded both bounds
}

// presolved is the reduction record mapping a reduced solve back to the
// original model.
type presolved struct {
	orig *Model
	red  *Model

	colMap     []int // original col -> reduced col, -1 when removed
	rowMap     []int // original row -> reduced row, -1 when removed
	keptCols   []int // reduced col -> original col
	keptRows   []int // reduced row -> original row
	removedCol []bool
	fixedVal   []float64     // value of each removed column
	fixedStat  []BasisStatus // resting status of each removed column
	folds      []singletonFold

	infeasible bool // presolve proved the model infeasible
}

// presolve computes the reduction. It returns nil when the model resists
// reduction bookkeeping (a should-not-happen safety hatch; the caller then
// solves the original model directly).
func (m *Model) presolve() *presolved {
	n, mr := len(m.obj), len(m.rows)
	ps := &presolved{
		orig:       m,
		colMap:     make([]int, n),
		rowMap:     make([]int, mr),
		removedCol: make([]bool, n),
		fixedVal:   make([]float64, n),
		fixedStat:  make([]BasisStatus, n),
	}
	lo := append([]float64(nil), m.lo...)
	hi := append([]float64(nil), m.hi...)
	for j := range lo {
		if lo[j] > hi[j] {
			return nil // let buildCompForm produce its usual error
		}
	}
	rhs := make([]float64, mr)
	removedRow := make([]bool, mr)
	type ent struct {
		other int // col for row entries, row for col entries
		coef  float64
	}
	rowEnts := make([][]ent, mr)
	colEnts := make([][]ent, n)
	rowActive := make([]int, mr)
	colActive := make([]int, n)
	for i, r := range m.rows {
		rhs[i] = r.rhs
		for p, j := range r.idx {
			if r.val[p] == 0 {
				continue
			}
			rowEnts[i] = append(rowEnts[i], ent{j, r.val[p]})
			colEnts[j] = append(colEnts[j], ent{i, r.val[p]})
		}
		rowActive[i] = len(rowEnts[i])
	}
	for j := range colEnts {
		colActive[j] = len(colEnts[j])
	}

	fixCol := func(j int, v float64, stat BasisStatus) {
		ps.removedCol[j] = true
		ps.fixedVal[j] = v
		ps.fixedStat[j] = stat
		for _, ce := range colEnts[j] {
			if removedRow[ce.other] {
				continue
			}
			rhs[ce.other] -= ce.coef * v
			rowActive[ce.other]--
		}
	}
	dropRow := func(i int) {
		removedRow[i] = true
		for _, re := range rowEnts[i] {
			if !ps.removedCol[re.other] {
				colActive[re.other]--
			}
		}
	}

	changed := true
	for pass := 0; changed && pass < 20 && !ps.infeasible; pass++ {
		changed = false
		// Fixed columns: substitute out.
		for j := 0; j < n; j++ {
			if ps.removedCol[j] || lo[j] != hi[j] {
				continue
			}
			fixCol(j, lo[j], BasisAtLower)
			changed = true
		}
		// Rows: vacuous rows checked and dropped, singleton rows folded.
		for i := 0; i < mr && !ps.infeasible; i++ {
			if removedRow[i] {
				continue
			}
			if rowActive[i] == 0 {
				tol := 1e-7 * (1 + math.Abs(m.rows[i].rhs))
				switch m.rows[i].sense {
				case LE:
					ps.infeasible = rhs[i] < -tol
				case GE:
					ps.infeasible = rhs[i] > tol
				case EQ:
					ps.infeasible = math.Abs(rhs[i]) > tol
				}
				if !ps.infeasible {
					dropRow(i)
					changed = true
				}
				continue
			}
			if rowActive[i] != 1 {
				continue
			}
			var j int
			var a float64
			for _, re := range rowEnts[i] {
				if !ps.removedCol[re.other] {
					j, a = re.other, re.coef
					break
				}
			}
			v := rhs[i] / a
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue // pathological scaling: leave the row alone
			}
			sense := m.rows[i].sense
			foldsUpper := sense == EQ || (sense == LE) == (a > 0)
			foldsLower := sense == EQ || !foldsUpper
			if foldsUpper && v < hi[j] {
				hi[j] = v
			}
			if foldsLower && v > lo[j] {
				lo[j] = v
			}
			if lo[j] > hi[j] {
				if lo[j]-hi[j] > 1e-7*(1+math.Abs(lo[j])+math.Abs(hi[j])) {
					ps.infeasible = true
					continue
				}
				mid := 0.5 * (lo[j] + hi[j]) // crossing within tolerance
				lo[j], hi[j] = mid, mid
			}
			ps.folds = append(ps.folds, singletonFold{
				row: i, col: j, coef: a, bound: v,
				isUpper: foldsUpper && sense != EQ, both: sense == EQ,
			})
			dropRow(i)
			changed = true
		}
		// Columns with no active rows: fix at the cost-minimizing finite
		// bound; keep columns whose improving direction is unbounded.
		for j := 0; j < n && !ps.infeasible; j++ {
			if ps.removedCol[j] || colActive[j] > 0 {
				continue
			}
			ceff := m.obj[j]
			if m.maximize {
				ceff = -ceff
			}
			switch {
			case ceff > 0 && !math.IsInf(lo[j], -1):
				fixCol(j, lo[j], BasisAtLower)
			case ceff < 0 && !math.IsInf(hi[j], 1):
				fixCol(j, hi[j], BasisAtUpper)
			case ceff == 0 && !math.IsInf(lo[j], -1):
				fixCol(j, lo[j], BasisAtLower)
			case ceff == 0 && !math.IsInf(hi[j], 1):
				fixCol(j, hi[j], BasisAtUpper)
			case ceff == 0:
				fixCol(j, 0, BasisFree)
			default:
				continue // unbounded improving direction: simplex certifies
			}
			changed = true
		}
	}
	if ps.infeasible {
		return ps
	}

	// Assemble the reduced model over the surviving columns and rows.
	red := NewModel()
	if m.maximize {
		red.SetMaximize()
	}
	for j := 0; j < n; j++ {
		if ps.removedCol[j] {
			ps.colMap[j] = -1
			continue
		}
		ps.colMap[j] = len(ps.keptCols)
		ps.keptCols = append(ps.keptCols, j)
		red.AddVariable(lo[j], hi[j], m.obj[j], m.names[j])
	}
	for i := 0; i < mr; i++ {
		if removedRow[i] {
			ps.rowMap[i] = -1
			continue
		}
		ps.rowMap[i] = len(ps.keptRows)
		ps.keptRows = append(ps.keptRows, i)
		var idx []VarID
		var val []float64
		for _, re := range rowEnts[i] {
			if ps.removedCol[re.other] {
				continue
			}
			idx = append(idx, VarID(ps.colMap[re.other]))
			val = append(val, re.coef)
		}
		if _, err := red.AddConstraint(m.rows[i].sense, rhs[i], idx, val); err != nil {
			return nil // substitution overflowed the rhs: fall back
		}
	}
	ps.red = red
	return ps
}

// mapBasisIn projects a full-space basis snapshot onto the reduced model:
// statuses of removed columns and dropped rows are discarded, and the
// projection is re-normalized so it carries exactly the right number of
// basics (dropping a basic column or row would otherwise make the inner
// solve reject the snapshot wholesale).
func (ps *presolved) mapBasisIn(b *Basis) *Basis {
	if b == nil {
		return nil
	}
	n, mr := len(ps.orig.obj), len(ps.orig.rows)
	if b.NumVars != n || b.NumRows != mr || len(b.Status) != n+mr {
		return nil
	}
	nr, mrr := len(ps.keptCols), len(ps.keptRows)
	out := &Basis{NumVars: nr, NumRows: mrr, Status: make([]BasisStatus, nr+mrr)}
	for jr, j := range ps.keptCols {
		out.Status[jr] = b.Status[j]
	}
	for ir, i := range ps.keptRows {
		out.Status[nr+ir] = b.Status[n+i]
	}
	return out.Normalize()
}

// mapBasisOut lifts a reduced-space basis snapshot back to the original
// computational form: removed columns rest at their fixed bound, dropped
// rows' logicals are basic (the basis matrix stays nonsingular because those
// unit columns extend any nonsingular reduced basis block-triangularly).
func (ps *presolved) mapBasisOut(b *Basis) *Basis {
	n, mr := len(ps.orig.obj), len(ps.orig.rows)
	out := &Basis{NumVars: n, NumRows: mr, Status: make([]BasisStatus, n+mr)}
	for j := 0; j < n; j++ {
		if ps.removedCol[j] {
			out.Status[j] = ps.fixedStat[j]
		}
	}
	nr := len(ps.keptCols)
	for jr, j := range ps.keptCols {
		out.Status[j] = b.Status[jr]
	}
	for i := 0; i < mr; i++ {
		out.Status[n+i] = BasisBasic
	}
	for ir, i := range ps.keptRows {
		out.Status[n+i] = b.Status[nr+ir]
	}
	return out
}

// postsolve expresses the reduced solution in the original model's terms.
// The duality identity Objective = Dual·b + ReducedObj·X is preserved:
// dropped vacuous rows carry zero duals; a dropped singleton row whose
// folded bound is binding receives the dual d_j/a_ij absorbed from the
// variable's reduced cost; removed columns get reduced costs recomputed
// against the final dual vector.
func (ps *presolved) postsolve(r *Solution) *Solution {
	m := ps.orig
	n, mr := len(m.obj), len(m.rows)
	sol := &Solution{
		Status:      r.Status,
		X:           make([]float64, n),
		Dual:        make([]float64, mr),
		ReducedObj:  make([]float64, n),
		WarmStarted: r.WarmStarted,
		Work:        r.Work,
	}
	sol.PresolveCols = n - len(ps.keptCols)
	sol.PresolveRows = mr - len(ps.keptRows)
	if r.Basis != nil {
		sol.Basis = ps.mapBasisOut(r.Basis)
	}
	if r.Status != Optimal && r.Status != IterLimit {
		return sol
	}
	for j := 0; j < n; j++ {
		if ps.removedCol[j] {
			sol.X[j] = ps.fixedVal[j]
		}
	}
	for jr, j := range ps.keptCols {
		sol.X[j] = r.X[jr]
		sol.ReducedObj[j] = r.ReducedObj[jr]
	}
	for ir, i := range ps.keptRows {
		sol.Dual[i] = r.Dual[ir]
	}
	// Dual attribution for folded singleton rows, in fold order: the first
	// fold whose bound is the one actually binding absorbs the variable's
	// reduced cost.
	for _, f := range ps.folds {
		jr := ps.colMap[f.col]
		if jr < 0 {
			continue
		}
		d := sol.ReducedObj[f.col]
		if d == 0 {
			continue
		}
		if math.Abs(sol.X[f.col]-f.bound) > 1e-7*(1+math.Abs(f.bound)) {
			continue
		}
		switch {
		case f.both:
			if ps.red.lo[jr] != f.bound || ps.red.hi[jr] != f.bound {
				continue
			}
		case f.isUpper:
			if ps.red.hi[jr] != f.bound {
				continue
			}
		default:
			if ps.red.lo[jr] != f.bound {
				continue
			}
		}
		sol.Dual[f.row] = d / f.coef
		sol.ReducedObj[f.col] = 0
	}
	// Reduced costs of removed columns against the final duals.
	for j := 0; j < n; j++ {
		if ps.removedCol[j] {
			sol.ReducedObj[j] = m.obj[j]
		}
	}
	for i, row := range m.rows {
		yi := sol.Dual[i]
		if yi == 0 {
			continue
		}
		for p, j := range row.idx {
			if ps.removedCol[j] {
				sol.ReducedObj[j] -= row.val[p] * yi
			}
		}
	}
	sol.Objective = m.ObjectiveValue(sol.X)
	return sol
}

// solvePresolved runs presolve, solves the reduced model, and maps the
// solution back. When presolve proves infeasibility no simplex runs at all;
// when presolve cannot complete its bookkeeping the original model is
// solved directly.
func (m *Model) solvePresolved(opts *Options) (*Solution, error) {
	ps := m.presolve()
	if ps == nil {
		return m.solveDirect(opts)
	}
	n, mr := len(m.obj), len(m.rows)
	if ps.infeasible {
		return &Solution{
			Status:     Infeasible,
			X:          make([]float64, n),
			Dual:       make([]float64, mr),
			ReducedObj: make([]float64, n),
			Work:       Work{PresolveCols: n, PresolveRows: mr},
		}, nil
	}
	ropts := *opts
	ropts.Presolve = false
	ropts.InitialBasis = ps.mapBasisIn(opts.InitialBasis)
	// The reduced model borrows the original's workspace.
	ps.red.workspace, m.workspace = m.workspace, nil
	rsol, err := ps.red.solveDirect(&ropts)
	m.workspace = ps.red.workspace
	if err != nil {
		return m.solveDirect(opts)
	}
	return ps.postsolve(rsol), nil
}
