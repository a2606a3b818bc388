package sparse

// Hyper-sparse triangular solves. When the right-hand side of B x = b (or
// Bᵀ y = c) has only a handful of nonzeros — the normal case for the FTRAN
// of an entering simplex column and the BTRAN of a pivot-row unit vector on
// network bases — the nonzero pattern of the solution can be predicted by a
// Gilbert-Peierls depth-first reachability pass over the pattern of L and U,
// and the numeric substitution then touches only that pattern instead of all
// n positions. Both solves fall back to the dense substitution path when the
// predicted pattern exceeds a caller-chosen limit, so worst-case cost never
// exceeds the dense solve by more than the aborted symbolic pass.

// PatternWorkspace holds the reusable scratch buffers for the sparse-RHS
// solves. The zero value is ready for use; buffers grow on demand and are
// retained across calls, so steady-state solves allocate nothing. A
// workspace must not be shared between concurrent solves. Between calls all
// numeric buffers are zero and all marks are clear; the solve methods
// restore that invariant before returning.
type PatternWorkspace struct {
	x      []float64 // dense numeric workspace in pivot space
	b      []float64 // dense RHS scratch for the dense fallback
	mark   []bool    // DFS visited flags
	cursor []int     // per-node edge cursor for the iterative DFS
	stack  []int     // explicit DFS stack
	topo   []int     // post-order of the first triangular phase
	topo2  []int     // post-order of the second triangular phase
	seed   []int     // permuted seed pattern
	pat    []int     // result pattern handed back to the caller

	// Backing slabs the buffers above are carved from.
	fslab []float64
	islab []int
	bslab []bool
}

// Ensure sizes the workspace for dimension-n solves. The float64 and int
// scratch each live in one contiguous slab carved into fixed-capacity
// sub-slices (three-index slicing pins every capacity, so append never
// crosses a neighbor): two cache-adjacent n-vectors for the numeric
// substitutions, six for the pattern walk. Each sub-slice has capacity
// exactly n — the DFS visits each node at most once per phase, so none of
// the appends can outgrow its segment. The slabs are kept, and re-carved
// when n changes: the numeric slab and the marks are zero at rest, so a
// re-carved workspace is indistinguishable from a new one.
func (ws *PatternWorkspace) Ensure(n int) {
	if len(ws.mark) == n {
		return
	}
	if cap(ws.fslab) < 2*n {
		// Headroom, because column generation grows the basis a few rows
		// per round.
		c := n + n/4
		ws.fslab = make([]float64, 2*c)
		ws.islab = make([]int, 6*c)
		ws.bslab = make([]bool, c)
	}
	fs, is := ws.fslab[:2*n], ws.islab[:6*n]
	ws.x = fs[0*n : 1*n : 1*n]
	ws.b = fs[1*n : 2*n : 2*n]
	ws.cursor = is[0*n : 1*n : 1*n]
	ws.stack = is[1*n : 1*n : 2*n]
	ws.topo = is[2*n : 2*n : 3*n]
	ws.topo2 = is[3*n : 3*n : 4*n]
	ws.seed = is[4*n : 4*n : 5*n]
	ws.pat = is[5*n : 5*n : 6*n]
	ws.mark = ws.bslab[:n]
}

// reach appends to topo the post-order of every node reachable from seeds
// through the adjacency lists (node j's successors are adj[ptr[j]:ptr[j+1]]).
// The reverse of the returned order is a topological order of the reached
// sub-DAG. Visited nodes are flagged in ws.mark; the caller clears them
// through the returned topo. When more than limit nodes accumulate the walk
// stops between seed components and ok is false — every marked node is still
// listed in topo, so cleanup remains pattern-bounded.
func (ws *PatternWorkspace) reach(seeds []int, ptr, adj []int, topo []int, limit int) (out []int, ok bool) {
	for _, r := range seeds {
		if ws.mark[r] {
			continue
		}
		if len(topo) > limit {
			return topo, false
		}
		ws.stack = append(ws.stack[:0], r)
		ws.mark[r] = true
		ws.cursor[r] = 0
		for len(ws.stack) > 0 {
			j := ws.stack[len(ws.stack)-1]
			adv := false
			lo, hi := ptr[j], ptr[j+1]
			for c := lo + ws.cursor[j]; c < hi; c++ {
				i := adj[c]
				ws.cursor[j] = c - lo + 1
				if !ws.mark[i] {
					ws.mark[i] = true
					ws.cursor[i] = 0
					ws.stack = append(ws.stack, i)
					adv = true
					break
				}
			}
			if !adv {
				ws.stack = ws.stack[:len(ws.stack)-1]
				topo = append(topo, j)
			}
		}
	}
	return topo, len(topo) <= limit
}

func (ws *PatternWorkspace) clearMarks(nodes []int) {
	for _, j := range nodes {
		ws.mark[j] = false
	}
}

// zeroX clears the dense numeric workspace in full (used after a dense
// fallback, when the touched pattern is no longer known).
func (ws *PatternWorkspace) zeroX() {
	for i := range ws.x {
		ws.x[i] = 0
	}
}

// solveDenseFromSparse is the dense fallback of SolveSparseRHS: scatter the
// sparse RHS and run the ordinary dense substitution. dst is fully written.
func (f *LU) solveDenseFromSparse(bIdx []int, bVal []float64, dst []float64, ws *PatternWorkspace) {
	for p, i := range bIdx {
		ws.b[i] += bVal[p]
	}
	f.Solve(ws.b, dst, ws.x)
	for _, i := range bIdx {
		ws.b[i] = 0
	}
	ws.zeroX()
}

// solveTDenseFromSparse is the dense fallback of SolveTSparseRHS.
func (f *LU) solveTDenseFromSparse(cIdx []int, cVal []float64, dst []float64, ws *PatternWorkspace) {
	for p, k := range cIdx {
		ws.b[k] += cVal[p]
	}
	f.SolveT(ws.b, dst, ws.x)
	for _, k := range cIdx {
		ws.b[k] = 0
	}
	ws.zeroX()
}

// SolveSparseRHS computes x = B⁻¹ b for a right-hand side given sparsely as
// parallel (bIdx, bVal) slices in original row space (duplicates are
// summed). On the sparse path (ok true) the nonzero values are scattered
// into dst — which must be zero on entry — and the returned pattern lists
// every position of dst that may now be nonzero; the pattern slice aliases
// the workspace and is valid until the next solve using ws. When the
// predicted pattern would exceed limit positions (or limit <= 0) the dense
// substitution runs instead: ok is false, dst is fully overwritten, and no
// pattern is returned.
func (f *LU) SolveSparseRHS(bIdx []int, bVal []float64, dst []float64, ws *PatternWorkspace, limit int) (pat []int, ok bool) {
	ws.Ensure(f.n)
	if limit <= 0 || len(bIdx) > limit {
		f.solveDenseFromSparse(bIdx, bVal, dst, ws)
		return nil, false
	}
	// Symbolic phase 1: reachability of the permuted RHS pattern through
	// L's column DAG (node k feeds the rows of L column k, all > k).
	ws.seed = ws.seed[:0]
	for _, i := range bIdx {
		ws.seed = append(ws.seed, f.pinv[i])
	}
	ws.topo = ws.topo[:0]
	var fits bool
	ws.topo, fits = ws.reach(ws.seed, f.lColPtr, f.lRow, ws.topo, limit)
	if !fits {
		ws.clearMarks(ws.topo)
		f.solveDenseFromSparse(bIdx, bVal, dst, ws)
		return nil, false
	}
	// Numeric L-solve over the pattern, in topological (reverse post-) order.
	for p, i := range bIdx {
		ws.x[f.pinv[i]] += bVal[p]
	}
	for t := len(ws.topo) - 1; t >= 0; t-- {
		k := ws.topo[t]
		xk := ws.x[k]
		if xk == 0 {
			continue
		}
		for c := f.lColPtr[k]; c < f.lColPtr[k+1]; c++ {
			ws.x[f.lRow[c]] -= f.lVal[c] * xk
		}
	}
	// Symbolic phase 2: reachability through U's column DAG (node k feeds
	// the rows of U column k, all < k). The phase-1 pattern seeds it, so its
	// marks are cleared first; phase 2 re-marks every phase-1 node.
	ws.clearMarks(ws.topo)
	ws.topo2 = ws.topo2[:0]
	ws.topo2, fits = ws.reach(ws.topo, f.uColPtr, f.uRow, ws.topo2, limit)
	if !fits {
		// The L-solve already ran; finish with the dense U substitution.
		ws.clearMarks(ws.topo2)
		f.uSolve(ws.x)
		copy(dst, ws.x)
		ws.zeroX()
		return nil, false
	}
	for t := len(ws.topo2) - 1; t >= 0; t-- {
		k := ws.topo2[t]
		xk := ws.x[k] / f.uDiag[k]
		ws.x[k] = xk
		if xk == 0 {
			continue
		}
		for c := f.uColPtr[k]; c < f.uColPtr[k+1]; c++ {
			ws.x[f.uRow[c]] -= f.uVal[c] * xk
		}
	}
	// Gather: pivot positions are exactly the caller's basis positions.
	ws.pat = ws.pat[:0]
	for _, k := range ws.topo2 {
		ws.mark[k] = false
		dst[k] = ws.x[k]
		ws.x[k] = 0
		ws.pat = append(ws.pat, k)
	}
	return ws.pat, true
}

// SolveTSparseRHS computes y = B⁻ᵀ c for a right-hand side given sparsely
// in pivot-position space (the space of SolveT's input vector; duplicates
// are summed). On the sparse path (ok true) the nonzero values are
// scattered into dst — which must be zero on entry — in original row space,
// with the returned pattern listing every possibly-nonzero position of dst.
// The dense fallback mirrors SolveSparseRHS.
func (f *LU) SolveTSparseRHS(cIdx []int, cVal []float64, dst []float64, ws *PatternWorkspace, limit int) (pat []int, ok bool) {
	ws.Ensure(f.n)
	if limit <= 0 || len(cIdx) > limit {
		f.solveTDenseFromSparse(cIdx, cVal, dst, ws)
		return nil, false
	}
	// Symbolic phase 1 (Uᵀ w = c, forward): node j feeds every column k
	// whose U column contains row j — the row pattern of U.
	ws.topo = ws.topo[:0]
	var fits bool
	ws.topo, fits = ws.reach(cIdx, f.uRowPtr, f.uRowCol, ws.topo, limit)
	if !fits {
		ws.clearMarks(ws.topo)
		f.solveTDenseFromSparse(cIdx, cVal, dst, ws)
		return nil, false
	}
	for p, k := range cIdx {
		ws.x[k] += cVal[p]
	}
	// Numeric pull: w_k = (c_k - Σ_{j<k} U_jk w_j) / U_kk in topological
	// order; unreached j contribute zeros.
	for t := len(ws.topo) - 1; t >= 0; t-- {
		k := ws.topo[t]
		sum := ws.x[k]
		for c := f.uColPtr[k]; c < f.uColPtr[k+1]; c++ {
			sum -= f.uVal[c] * ws.x[f.uRow[c]]
		}
		ws.x[k] = sum / f.uDiag[k]
	}
	// Symbolic phase 2 (Lᵀ z = w, backward): node j feeds every column k
	// whose L column contains row j — the row pattern of L.
	ws.clearMarks(ws.topo)
	ws.topo2 = ws.topo2[:0]
	ws.topo2, fits = ws.reach(ws.topo, f.lRowPtr, f.lRowCol, ws.topo2, limit)
	if !fits {
		// The Uᵀ substitution already ran; finish the Lᵀ part densely.
		ws.clearMarks(ws.topo2)
		for k := f.n - 1; k >= 0; k-- {
			sum := ws.x[k]
			for c := f.lColPtr[k]; c < f.lColPtr[k+1]; c++ {
				sum -= f.lVal[c] * ws.x[f.lRow[c]]
			}
			ws.x[k] = sum
		}
		for i := 0; i < f.n; i++ {
			dst[i] = ws.x[f.pinv[i]]
		}
		ws.zeroX()
		return nil, false
	}
	for t := len(ws.topo2) - 1; t >= 0; t-- {
		k := ws.topo2[t]
		sum := ws.x[k]
		for c := f.lColPtr[k]; c < f.lColPtr[k+1]; c++ {
			sum -= f.lVal[c] * ws.x[f.lRow[c]]
		}
		ws.x[k] = sum
	}
	// Gather through the row permutation: y_i = z_{pinv[i]}.
	ws.pat = ws.pat[:0]
	for _, k := range ws.topo2 {
		ws.mark[k] = false
		i := f.perm[k]
		dst[i] = ws.x[k]
		ws.x[k] = 0
		ws.pat = append(ws.pat, i)
	}
	return ws.pat, true
}
