package sparse

import "fmt"

// Repair records a basis repair performed during factorization: the matrix
// column at position Pos was numerically singular (its eliminated column had
// no usable pivot), so it was replaced by the unit column of row Row. The
// caller is expected to update its own bookkeeping accordingly (the revised
// simplex swaps the offending basic variable for the logical variable of
// Row).
type Repair struct {
	Pos int // column position in the factorized matrix
	Row int // row whose unit column was substituted
}

// LU is a sparse LU factorization P*B = L*U produced by Factorize, where L
// is unit lower triangular (implicit diagonal), U is upper triangular with
// its diagonal stored separately, and P is the row permutation chosen by
// partial pivoting. Row indices of L and U are expressed in pivot-position
// space once factorization completes.
//
// An LU owns its storage: Factorize overwrites a caller-supplied LU in
// place, reusing every slice it holds, so refactorizing a basis of similar
// size allocates nothing. Between calls the numeric scratch is zero and the
// DFS marks are clear; Factorize restores that on every return path.
type LU struct {
	n int

	lColPtr []int
	lRow    []int
	lVal    []float64

	uColPtr []int
	uRow    []int
	uVal    []float64
	uDiag   []float64

	// Row-major patterns of L and U (pattern only, no values), built once at
	// the end of factorization. The sparse-RHS transposed solves use them to
	// run Gilbert-Peierls reachability in the transposed direction: row j of
	// L (resp. U) lists the columns k whose column contains row j, i.e. the
	// successors of node j in the dependency DAG of the Lᵀ (resp. Uᵀ)
	// triangular solve.
	lRowPtr []int
	lRowCol []int
	uRowPtr []int
	uRowCol []int

	pinv []int // original row -> pivot position
	perm []int // pivot position -> original row

	repairs []Repair

	// Factorization scratch, retained across calls.
	x      []float64 // dense numeric workspace, zero between columns
	mark   []bool    // DFS visited flags, clear between columns
	topo   []int     // post-order node list (reverse = topological)
	stack  []int     // explicit DFS stack
	cursor []int     // per-node edge cursor for the iterative DFS
	next   []int     // per-row insertion cursor of transposePattern
}

// N reports the dimension of the factorized matrix.
func (f *LU) N() int { return f.n }

// Repairs reports the basis repairs performed, in factorization order. An
// empty slice means the matrix was numerically nonsingular. The slice is
// owned by the LU and overwritten by its next factorization.
func (f *LU) Repairs() []Repair { return f.repairs }

// LNNZ reports the number of stored off-diagonal entries of L.
func (f *LU) LNNZ() int { return len(f.lRow) }

// UNNZ reports the number of stored entries of U including the diagonal.
func (f *LU) UNNZ() int { return len(f.uRow) + f.n }

// Factorize computes a sparse LU factorization of the n x n matrix whose
// k-th column is returned by column (as parallel row-index and value
// slices, which Factorize does not retain). Partial pivoting selects the
// largest-magnitude eligible entry; a column whose largest eligible entry
// is below pivTol is treated as singular and repaired by substituting a
// unit column (see Repair). Factorize follows the left-looking
// Gilbert-Peierls algorithm: each column is obtained by a sparse triangular
// solve against the already-computed columns of L, with the nonzero pattern
// predicted by a depth-first reachability pass.
//
// The factorization is written into f, whose storage is reused; nil
// allocates a new LU. The result is identical either way. On error f holds
// no factorization (N reports 0) and its scratch is clean, so it can be
// passed to the next call.
func Factorize(f *LU, n int, column func(k int) ([]int, []float64), pivTol float64) (*LU, error) {
	if f == nil {
		f = new(LU)
	}
	if n < 0 {
		f.discard()
		return nil, fmt.Errorf("sparse: negative dimension %d", n)
	}
	if pivTol <= 0 {
		pivTol = 1e-11
	}
	f.n = n
	f.lColPtr = append(f.lColPtr[:0], 0)
	f.lRow, f.lVal = f.lRow[:0], f.lVal[:0]
	f.uColPtr = append(f.uColPtr[:0], 0)
	f.uRow, f.uVal, f.uDiag = f.uRow[:0], f.uVal[:0], f.uDiag[:0]
	f.pinv = resize(f.pinv, n)
	f.perm = resize(f.perm, n)
	for i := range f.pinv {
		f.pinv[i] = -1
		f.perm[i] = -1
	}
	f.repairs = f.repairs[:0]

	// x and mark are zero across their whole backing arrays between calls,
	// so reslicing them needs no clearing.
	x := resize(f.x, n)
	mark := resize(f.mark, n)
	cursor := resize(f.cursor, n)
	topo, stack := f.topo[:0], f.stack[:0]
	freeRowScan := 0 // cursor for locating unpivoted rows on repair
	// fail leaves the column's scratch clean and f empty.
	fail := func(err error) (*LU, error) {
		clearWorkspace(x, mark, topo)
		f.x, f.mark, f.cursor, f.topo, f.stack = x, mark, cursor, topo, stack
		f.discard()
		return nil, err
	}

	for k := 0; k < n; k++ {
		rows, vals := column(k)
		if len(rows) != len(vals) {
			return fail(fmt.Errorf("sparse: column %d has mismatched slices (%d rows, %d vals)", k, len(rows), len(vals)))
		}
		// Symbolic: reachability of the column pattern through L's DAG.
		topo = topo[:0]
		for _, r := range rows {
			if r < 0 || r >= n {
				return fail(fmt.Errorf("sparse: column %d row index %d out of range", k, r))
			}
			if mark[r] {
				continue
			}
			// Iterative DFS from r.
			stack = append(stack[:0], r)
			mark[r] = true
			cursor[r] = 0
			for len(stack) > 0 {
				j := stack[len(stack)-1]
				adv := false
				if pj := f.pinv[j]; pj >= 0 {
					lo, hi := f.lColPtr[pj], f.lColPtr[pj+1]
					for c := lo + cursor[j]; c < hi; c++ {
						i := f.lRow[c]
						cursor[j] = c - lo + 1
						if !mark[i] {
							mark[i] = true
							cursor[i] = 0
							stack = append(stack, i)
							adv = true
							break
						}
					}
				}
				if !adv {
					stack = stack[:len(stack)-1]
					topo = append(topo, j)
				}
			}
		}
		// Numeric scatter of the right-hand side.
		for p, r := range rows {
			x[r] += vals[p]
		}
		// Numeric solve in topological order (reverse of post-order).
		for t := len(topo) - 1; t >= 0; t-- {
			j := topo[t]
			pj := f.pinv[j]
			if pj < 0 {
				continue
			}
			xj := x[j]
			if xj == 0 {
				continue
			}
			for c := f.lColPtr[pj]; c < f.lColPtr[pj+1]; c++ {
				x[f.lRow[c]] -= f.lVal[c] * xj
			}
		}
		// Partition: pivotal entries feed U, eligible rows compete for the pivot.
		ipiv, pmax := -1, 0.0
		for _, j := range topo {
			if f.pinv[j] >= 0 {
				continue
			}
			if a := abs(x[j]); a > pmax {
				pmax, ipiv = a, j
			}
		}
		if ipiv < 0 || pmax < pivTol {
			// Singular column: substitute the unit column of the first
			// still-unpivoted row.
			for freeRowScan < n && f.pinv[freeRowScan] >= 0 {
				freeRowScan++
			}
			if freeRowScan >= n {
				return fail(fmt.Errorf("sparse: no unpivoted row available for repair at column %d", k))
			}
			r := freeRowScan
			f.pinv[r] = k
			f.perm[k] = r
			f.uDiag = append(f.uDiag, 1)
			f.uColPtr = append(f.uColPtr, len(f.uRow))
			f.lColPtr = append(f.lColPtr, len(f.lRow))
			f.repairs = append(f.repairs, Repair{Pos: k, Row: r})
			clearWorkspace(x, mark, topo)
			continue
		}
		pivVal := x[ipiv]
		f.pinv[ipiv] = k
		f.perm[k] = ipiv
		f.uDiag = append(f.uDiag, pivVal)
		for _, j := range topo {
			if j == ipiv {
				continue
			}
			v := x[j]
			if v == 0 {
				continue
			}
			if pj := f.pinv[j]; pj >= 0 {
				f.uRow = append(f.uRow, pj) // already pivot-position space
				f.uVal = append(f.uVal, v)
			} else {
				f.lRow = append(f.lRow, j) // original space; remapped below
				f.lVal = append(f.lVal, v/pivVal)
			}
		}
		f.uColPtr = append(f.uColPtr, len(f.uRow))
		f.lColPtr = append(f.lColPtr, len(f.lRow))
		clearWorkspace(x, mark, topo)
	}
	f.x, f.mark, f.cursor, f.topo, f.stack = x, mark, cursor, topo, stack
	// Remap L's row indices from original space to pivot positions.
	for p, r := range f.lRow {
		f.lRow[p] = f.pinv[r]
	}
	f.buildRowPatterns()
	return f, nil
}

// discard empties the factorization after a failed call, keeping storage.
// A nil LU has nothing to discard.
func (f *LU) discard() {
	if f == nil {
		return
	}
	f.n = 0
	f.lColPtr, f.lRow, f.lVal = f.lColPtr[:0], f.lRow[:0], f.lVal[:0]
	f.uColPtr, f.uRow, f.uVal, f.uDiag = f.uColPtr[:0], f.uRow[:0], f.uVal[:0], f.uDiag[:0]
	f.lRowPtr, f.lRowCol, f.uRowPtr, f.uRowCol = f.lRowPtr[:0], f.lRowCol[:0], f.uRowPtr[:0], f.uRowCol[:0]
	f.pinv, f.perm, f.repairs = f.pinv[:0], f.perm[:0], f.repairs[:0]
}

// buildRowPatterns assembles the row-major patterns of L and U (in pivot
// space) that the transposed sparse solves traverse.
func (f *LU) buildRowPatterns() {
	f.lRowPtr, f.lRowCol = f.transposePattern(f.lColPtr, f.lRow, f.lRowPtr, f.lRowCol)
	f.uRowPtr, f.uRowCol = f.transposePattern(f.uColPtr, f.uRow, f.uRowPtr, f.uRowCol)
}

// transposePattern converts a CSC pattern into the corresponding CSR
// pattern, written into rowPtr and rowCol: for each row r, the list of
// columns k whose column contains r. Column lists come out sorted
// ascending.
func (f *LU) transposePattern(colPtr, rowIdx, rowPtr, rowCol []int) ([]int, []int) {
	n := f.n
	rowPtr = resize(rowPtr, n+1)
	clear(rowPtr)
	for _, r := range rowIdx {
		rowPtr[r+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	rowCol = resize(rowCol, len(rowIdx))
	f.next = resize(f.next, n)
	copy(f.next, rowPtr[:n])
	for k := 0; k < n; k++ {
		for c := colPtr[k]; c < colPtr[k+1]; c++ {
			r := rowIdx[c]
			rowCol[f.next[r]] = k
			f.next[r]++
		}
	}
	return rowPtr, rowCol
}

// FactorizeBasis factorizes, into f (nil allocates), the square basis
// matrix whose k-th column is column basis[k] of a. It is the entry point
// the revised simplex uses both for cold refactorizations and for
// factorizing a caller-supplied warm basis: the column order is exactly the
// basis order, so pivot-position bookkeeping in the returned LU matches the
// simplex's row positions. Each basis entry must index a column of a; a's
// row count must equal len(basis). Errors leave f as Factorize's do.
func FactorizeBasis(f *LU, a *Matrix, basis []int, pivTol float64) (*LU, error) {
	if a.Rows != len(basis) {
		f.discard()
		return nil, fmt.Errorf("sparse: basis of %d columns for a matrix with %d rows", len(basis), a.Rows)
	}
	for k, j := range basis {
		if j < 0 || j >= a.Cols {
			f.discard()
			return nil, fmt.Errorf("sparse: basis position %d references column %d of a %dx%d matrix",
				k, j, a.Rows, a.Cols)
		}
	}
	return Factorize(f, len(basis), func(k int) ([]int, []float64) {
		return a.ColumnSlices(basis[k])
	}, pivTol)
}

// resize returns s with length n, reusing its backing array when it is
// large enough and growing it as append would otherwise. Elements that
// survive keep their values; callers overwrite or clear what they read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

func clearWorkspace(x []float64, mark []bool, pattern []int) {
	for _, j := range pattern {
		x[j] = 0
		mark[j] = false
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Solve computes x = B⁻¹ b, writing the result into dst (which must have
// length n and may alias neither b nor internal state). scratch must also
// have length n; it is fully overwritten.
func (f *LU) Solve(b, dst, scratch []float64) {
	w := scratch
	for i := 0; i < f.n; i++ {
		w[f.pinv[i]] = b[i]
	}
	f.lSolve(w)
	f.uSolve(w)
	copy(dst, w)
}

// lSolve solves L*x = w in place, with w in pivot-position space.
func (f *LU) lSolve(w []float64) {
	for k := 0; k < f.n; k++ {
		xk := w[k]
		if xk == 0 {
			continue
		}
		for c := f.lColPtr[k]; c < f.lColPtr[k+1]; c++ {
			w[f.lRow[c]] -= f.lVal[c] * xk
		}
	}
}

// uSolve solves U*x = w in place, with w in pivot-position space.
func (f *LU) uSolve(w []float64) {
	for k := f.n - 1; k >= 0; k-- {
		xk := w[k] / f.uDiag[k]
		w[k] = xk
		if xk == 0 {
			continue
		}
		for c := f.uColPtr[k]; c < f.uColPtr[k+1]; c++ {
			w[f.uRow[c]] -= f.uVal[c] * xk
		}
	}
}

// SolveT computes y = B⁻ᵀ c, writing the result into dst (length n).
// scratch must have length n; it is fully overwritten.
func (f *LU) SolveT(c, dst, scratch []float64) {
	w := scratch
	copy(w, c)
	// Uᵀ w' = c  (Uᵀ is lower triangular).
	for k := 0; k < f.n; k++ {
		sum := w[k]
		for p := f.uColPtr[k]; p < f.uColPtr[k+1]; p++ {
			sum -= f.uVal[p] * w[f.uRow[p]]
		}
		w[k] = sum / f.uDiag[k]
	}
	// Lᵀ z = w'  (Lᵀ is unit upper triangular).
	for k := f.n - 1; k >= 0; k-- {
		sum := w[k]
		for p := f.lColPtr[k]; p < f.lColPtr[k+1]; p++ {
			sum -= f.lVal[p] * w[f.lRow[p]]
		}
		w[k] = sum
	}
	// Undo the row permutation: y_i = z_{pinv[i]}.
	for i := 0; i < f.n; i++ {
		dst[i] = w[f.pinv[i]]
	}
}
