package lp

import "math"

// SolveDense optimizes the model with a classic two-phase full-tableau
// simplex on the standard form (bounds rewritten as rows, free variables
// split). It is the tests' dense reference: deliberately implemented with
// none of the machinery of the sparse solver so the two can cross-check
// each other. Intended for small models only: memory and time are
// O(rows·cols) per pivot.
func (m *Model) SolveDense() (*Solution, error) {
	nOrig := len(m.obj)
	// Variable substitutions: x_j = shift_j + sign_j * x'_j (+ optional
	// second column for free variables: x_j = x'_j - x''_j).
	type subst struct {
		col1  int
		col2  int // -1 unless the variable is free in both directions
		shift float64
		sign  float64
	}
	subs := make([]subst, nOrig)
	nCols := 0
	type extraRow struct {
		col int
		rhs float64
	}
	var upperRows []extraRow // x'_col ≤ rhs
	for j := 0; j < nOrig; j++ {
		lo, hi := m.lo[j], m.hi[j]
		switch {
		case !math.IsInf(lo, -1):
			subs[j] = subst{col1: nCols, col2: -1, shift: lo, sign: 1}
			nCols++
			if !math.IsInf(hi, 1) {
				upperRows = append(upperRows, extraRow{col: subs[j].col1, rhs: hi - lo})
			}
		case !math.IsInf(hi, 1):
			subs[j] = subst{col1: nCols, col2: -1, shift: hi, sign: -1}
			nCols++
		default:
			subs[j] = subst{col1: nCols, col2: nCols + 1, shift: 0, sign: 1}
			nCols += 2
		}
	}
	nRows := len(m.rows) + len(upperRows)
	// Dense A, b, and cost c over substituted columns (before slacks).
	a := make([][]float64, nRows)
	for i := range a {
		a[i] = make([]float64, nCols)
	}
	b := make([]float64, nRows)
	senses := make([]Sense, nRows)
	for i, r := range m.rows {
		rhs := r.rhs
		for p, j := range r.idx {
			v := r.val[p]
			sb := subs[j]
			rhs -= v * sb.shift
			a[i][sb.col1] += v * sb.sign
			if sb.col2 >= 0 {
				a[i][sb.col2] -= v
			}
		}
		b[i] = rhs
		senses[i] = r.sense
	}
	for k, er := range upperRows {
		i := len(m.rows) + k
		a[i][er.col] = 1
		b[i] = er.rhs
		senses[i] = LE
	}
	c := make([]float64, nCols)
	for j := 0; j < nOrig; j++ {
		cj := m.obj[j]
		if m.maximize {
			cj = -cj
		}
		sb := subs[j]
		c[sb.col1] += cj * sb.sign
		if sb.col2 >= 0 {
			c[sb.col2] -= cj
		}
	}
	// Normalize to b >= 0 and append slack/surplus + artificial columns.
	for i := 0; i < nRows; i++ {
		if b[i] < 0 {
			for j := range a[i] {
				a[i][j] = -a[i][j]
			}
			b[i] = -b[i]
			switch senses[i] {
			case LE:
				senses[i] = GE
			case GE:
				senses[i] = LE
			}
		}
	}
	slackOf := make([]int, nRows)
	for i := range slackOf {
		slackOf[i] = -1
	}
	totalCols := nCols
	for i := 0; i < nRows; i++ {
		if senses[i] == LE || senses[i] == GE {
			slackOf[i] = totalCols
			totalCols++
		}
	}
	artOf := make([]int, nRows)
	nArt := 0
	for i := 0; i < nRows; i++ {
		if senses[i] == LE {
			artOf[i] = -1
		} else {
			artOf[i] = totalCols + nArt
			nArt++
		}
	}
	width := totalCols + nArt
	tab := make([][]float64, nRows)
	basis := make([]int, nRows)
	for i := 0; i < nRows; i++ {
		tab[i] = make([]float64, width+1)
		copy(tab[i], a[i])
		if s := slackOf[i]; s >= 0 {
			if senses[i] == LE {
				tab[i][s] = 1
			} else {
				tab[i][s] = -1
			}
		}
		if art := artOf[i]; art >= 0 {
			tab[i][art] = 1
			basis[i] = art
		} else {
			basis[i] = slackOf[i]
		}
		tab[i][width] = b[i]
	}

	const tol = 1e-9
	// blockArtificials makes rows whose basic variable is an artificial block
	// the ratio test at step 0 so the artificial is pivoted out instead of
	// drifting away from zero (only meaningful once phase 1 is done).
	pivotTableau := func(costs []float64, maxIter int, forbid func(j int) bool, blockArtificials bool) Status {
		// z-row maintenance: reduced costs d_j = costs_j - cB·col_j,
		// recomputed each iteration for simplicity (dense reference).
		for iter := 0; iter < maxIter; iter++ {
			var d []float64
			d = make([]float64, width)
			for j := 0; j < width; j++ {
				if forbid != nil && forbid(j) {
					d[j] = math.Inf(1)
					continue
				}
				dj := costs[j]
				for i := 0; i < nRows; i++ {
					dj -= costs[basis[i]] * tab[i][j]
				}
				d[j] = dj
			}
			// Bland's rule: first improving column (guaranteed finite).
			enter := -1
			for j := 0; j < width; j++ {
				if !math.IsInf(d[j], 1) && d[j] < -tol {
					enter = j
					break
				}
			}
			if enter < 0 {
				return Optimal
			}
			leave, best := -1, math.Inf(1)
			for i := 0; i < nRows; i++ {
				if blockArtificials && basis[i] >= totalCols && math.Abs(tab[i][enter]) > tol {
					// Kick the artificial out at a zero-length step.
					best, leave = 0, i
					break
				}
				if tab[i][enter] > tol {
					ratio := tab[i][width] / tab[i][enter]
					if ratio < best-tol || (ratio < best+tol && (leave < 0 || basis[i] < basis[leave])) {
						best, leave = ratio, i
					}
				}
			}
			if leave < 0 {
				return Unbounded
			}
			// Gauss-Jordan pivot on (leave, enter).
			pv := tab[leave][enter]
			for j := 0; j <= width; j++ {
				tab[leave][j] /= pv
			}
			for i := 0; i < nRows; i++ {
				if i == leave {
					continue
				}
				f := tab[i][enter]
				if f == 0 {
					continue
				}
				for j := 0; j <= width; j++ {
					tab[i][j] -= f * tab[leave][j]
				}
			}
			basis[leave] = enter
		}
		return IterLimit
	}

	maxIter := 2000 + 50*(nRows+width)
	// Phase 1: minimize the artificial sum.
	if nArt > 0 {
		phase1 := make([]float64, width)
		for i := 0; i < nRows; i++ {
			if artOf[i] >= 0 {
				phase1[artOf[i]] = 1
			}
		}
		if st := pivotTableau(phase1, maxIter, nil, false); st == IterLimit {
			return &Solution{Status: IterLimit}, nil
		}
		sum := 0.0
		for i := 0; i < nRows; i++ {
			if basis[i] >= totalCols {
				sum += tab[i][width]
			}
		}
		if sum > 1e-6 {
			return &Solution{Status: Infeasible}, nil
		}
	}
	// Phase 2: original costs, artificials forbidden.
	fullCost := make([]float64, width)
	copy(fullCost, c)
	st := pivotTableau(fullCost, maxIter, func(j int) bool { return j >= totalCols }, true)
	sol := &Solution{Status: st, X: make([]float64, nOrig)}
	if st != Optimal {
		return sol, nil
	}
	xsub := make([]float64, width)
	for i := 0; i < nRows; i++ {
		xsub[basis[i]] = tab[i][width]
	}
	for j := 0; j < nOrig; j++ {
		sb := subs[j]
		v := sb.shift + sb.sign*xsub[sb.col1]
		if sb.col2 >= 0 {
			v -= xsub[sb.col2]
		}
		sol.X[j] = v
	}
	sol.Objective = m.ObjectiveValue(sol.X)
	return sol, nil
}
