package lp

import (
	"fmt"
	"math"

	"github.com/interdc/postcard/internal/lp/sparse"
)

// Variable status within the simplex.
type vstatus byte

const (
	vBasic vstatus = iota + 1
	vAtLower
	vAtUpper
	vFree // nonbasic free variable resting at zero
)

// compForm is the computational form of a model: min c·x subject to
// A·x = b, lo ≤ x ≤ hi, where A includes one logical (slack) column per row
// appended after the n structural columns.
type compForm struct {
	m, n int // rows, structural columns; A has n+m columns
	a    *sparse.Matrix
	b    []float64
	c    []float64 // minimization costs used for pivoting (perturbed)
	c0   []float64 // original minimization costs, for objective reporting
	lo   []float64
	hi   []float64

	trip []sparse.Triplet // assembly buffer for a, retained for the next build
}

// perturb adds a deterministic pseudo-random tiny amount to every cost to
// break the massive dual degeneracy of network LPs. The original costs are
// kept in c0 for reporting.
func (cf *compForm) perturb(scale float64) {
	cf.c0 = append(cf.c0[:0], cf.c...)
	if scale <= 0 {
		return
	}
	for j := range cf.c {
		h := uint64(j)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		h ^= h >> 30
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		u := float64(h>>11) / float64(1<<53) // in [0, 1)
		cf.c[j] += scale * (0.5 + u) * (1 + math.Abs(cf.c[j]))
	}
}

// buildCompForm assembles the model's computational form into cf, reusing
// cf's vectors, triplet buffer and matrix storage. Maximization is handled
// by negating costs; Solve flips the objective value back.
func (m *Model) buildCompForm(cf *compForm) error {
	nRows, nCols := len(m.rows), len(m.obj)
	for j := 0; j < nCols; j++ {
		if m.lo[j] > m.hi[j] {
			return fmt.Errorf("lp: variable %s has empty domain [%g, %g]",
				m.VarName(VarID(j)), m.lo[j], m.hi[j])
		}
	}
	total := nCols + nRows
	cf.m, cf.n = nRows, nCols
	cf.b = resize(cf.b, nRows)
	cf.c = resize(cf.c, total)
	cf.lo = resize(cf.lo, total)
	cf.hi = resize(cf.hi, total)
	copy(cf.lo, m.lo)
	copy(cf.hi, m.hi)
	for j, c := range m.obj {
		if m.maximize {
			cf.c[j] = -c
		} else {
			cf.c[j] = c
		}
	}
	clear(cf.c[nCols:]) // logicals cost nothing
	trip := cf.trip[:0]
	for i, r := range m.rows {
		cf.b[i] = r.rhs
		for p, j := range r.idx {
			trip = append(trip, sparse.Triplet{Row: i, Col: j, Val: r.val[p]})
		}
		lj := nCols + i
		trip = append(trip, sparse.Triplet{Row: i, Col: lj, Val: 1})
		switch r.sense {
		case LE:
			cf.lo[lj], cf.hi[lj] = 0, math.Inf(1)
		case GE:
			cf.lo[lj], cf.hi[lj] = math.Inf(-1), 0
		case EQ:
			cf.lo[lj], cf.hi[lj] = 0, 0
		}
	}
	cf.trip = trip
	a, err := sparse.NewFromTriplets(cf.a, nRows, total, trip)
	if err != nil {
		return fmt.Errorf("lp: building constraint matrix: %w", err)
	}
	cf.a = a
	return nil
}

// eta is one product-form basis update. Its nonzero off-pivot rows live in
// the simplex's pooled etaIdx/etaVal arrays at [start, end); the pools are
// truncated (capacity retained) on every refactorization, so steady-state
// pivots allocate nothing once the pools have grown to their working size.
type eta struct {
	start, end int // slice of the pooled etaIdx/etaVal arrays
	r          int // pivot row
	pivot      float64
}

// simplex holds the mutable state of one revised-simplex solve. It is also
// the workspace a Model retains between solves: reset readies it for the
// next solve in place, so every buffer below is allocated once per Model
// and grown only when the model does.
type simplex struct {
	cf  compForm
	opt Options

	basis []int     // basic variable per row position
	vstat []vstatus // per variable
	xB    []float64 // values of basic variables by row position

	lu     *sparse.LU
	at     *sparse.CSR // row-major mirror of cf.a for pivot-row assembly
	etas   []eta
	etaIdx []int
	etaVal []float64

	// FTRAN result (entering column in basis coordinates), pattern-tracked:
	// w is zero and wMark false everywhere outside wIdx.
	w     []float64
	wIdx  []int
	wMark []bool

	// dense workspaces, all of length m
	y       []float64 // BTRAN result (simplex multipliers), dense path
	cB      []float64 // basic cost vector; maintained incrementally in phase 1
	scratch []float64
	rhs     []float64

	// sparse BTRAN result (rho = B⁻ᵀ e_r or a correction vector), in original
	// row space, pattern-tracked: zero outside rhoIdx.
	rho    []float64
	rhoIdx []int
	// basis-position-space intermediate of the eta-transpose stage.
	btv     []float64
	btvIdx  []int
	btvMark []bool
	posVal  []float64
	uIdx    [1]int
	uVal    [1]float64

	// pivot row of B⁻¹A over all columns, pattern-tracked.
	alpha     []float64
	alphaIdx  []int
	alphaMark []bool

	// maintained reduced costs and devex reference weights, length n+m.
	d          []float64
	devexW     []float64
	dValid     bool
	dPhase1    bool // the maintained d vector is for phase-1 costs
	devexStale bool // reference framework needs a reset before next pricing

	// factored reports that the LU, the (empty) eta file and xB are exactly
	// what refactorize would rebuild: the last factorization made no
	// repairs, and no pivot, bound flip or basis install has happened since.
	factored bool

	// phase-1 incremental cost-change scratch.
	deltaIdx []int
	deltaVal []float64

	ws sparse.PatternWorkspace

	seen []bool // warm-start bijection check scratch, clear at rest

	warmStarted bool
	perturbOff  bool // cost perturbation has been stripped mid-solve
	bland       bool
	stallCount  int
	goodSteps   int // consecutive non-degenerate steps while in Bland mode
	pricePos    int // rotating cursor of the phase-1 pricing window

	work Work
}

// loadSimplex readies the workspace s (nil allocates one) to solve the
// model under opts: it assembles the computational form into s, perturbs
// its costs and resets every piece of solver state.
func (m *Model) loadSimplex(s *simplex, opts *Options) (*simplex, error) {
	if s == nil {
		s = new(simplex)
	}
	if err := m.buildCompForm(&s.cf); err != nil {
		return nil, err
	}
	opt := opts.withDefaults(s.cf.m, s.cf.n)
	s.cf.perturb(opt.perturb)
	s.reset(opt)
	return s, nil
}

// reset returns the solver state to that of a newly allocated simplex over
// the computational form just assembled into s.cf: every vector is resized
// to the new shape and zeroed, the eta pools are emptied, and every scalar
// takes its initial value, while all backing arrays, the LU and the
// pattern workspace are kept. A recycled solve therefore follows exactly
// the trajectory of a fresh one. Every buffer a steady-state iteration
// appends to is pre-sized here, so iterations after warm-up perform no
// allocations (asserted by TestSteadyStateIterationAllocs).
func (s *simplex) reset(opt Options) {
	m, total := s.cf.m, s.cf.n+s.cf.m
	lu := s.lu
	if lu == nil {
		lu = new(sparse.LU)
	}
	*s = simplex{
		cf:         s.cf,
		opt:        opt,
		basis:      zeroed(s.basis, m),
		vstat:      zeroed(s.vstat, total),
		xB:         zeroed(s.xB, m),
		lu:         lu,
		at:         s.cf.a.ToCSR(s.at),
		etas:       s.etas[:0],
		etaIdx:     s.etaIdx[:0],
		etaVal:     s.etaVal[:0],
		w:          zeroed(s.w, m),
		wIdx:       resize(s.wIdx, m)[:0],
		wMark:      zeroed(s.wMark, m),
		y:          zeroed(s.y, m),
		cB:         zeroed(s.cB, m),
		scratch:    zeroed(s.scratch, m),
		rhs:        zeroed(s.rhs, m),
		rho:        zeroed(s.rho, m),
		rhoIdx:     resize(s.rhoIdx, m)[:0],
		btv:        zeroed(s.btv, m),
		btvIdx:     resize(s.btvIdx, m)[:0],
		btvMark:    zeroed(s.btvMark, m),
		posVal:     resize(s.posVal, m)[:0],
		alpha:      zeroed(s.alpha, total),
		alphaIdx:   resize(s.alphaIdx, total)[:0],
		alphaMark:  zeroed(s.alphaMark, total),
		d:          zeroed(s.d, total),
		devexW:     zeroed(s.devexW, total),
		deltaIdx:   resize(s.deltaIdx, m)[:0],
		deltaVal:   resize(s.deltaVal, m)[:0],
		ws:         s.ws,
		seen:       zeroed(s.seen, total),
		devexStale: true, // weights start uninitialized
	}
}

// resize returns s with length n, reusing its backing array when it is
// large enough and growing it as append would otherwise. Elements that
// survive keep their values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// zeroed is resize with every element cleared.
func zeroed[T any](s []T, n int) []T {
	s = resize(s, n)
	clear(s)
	return s
}

// sparseLimit is the pattern-size cutoff for the hyper-sparse triangular
// solves: predicted patterns denser than ~30% of the dimension fall back to
// the dense substitution, whose sequential sweeps beat pattern chasing once
// most positions are touched anyway.
func (s *simplex) sparseLimit() int {
	lim := (3 * s.cf.m) / 10
	if lim < 16 {
		lim = 16
	}
	return lim
}

// nbValue reports the resting value of nonbasic variable j.
func (s *simplex) nbValue(j int) float64 {
	switch s.vstat[j] {
	case vAtLower:
		return s.cf.lo[j]
	case vAtUpper:
		return s.cf.hi[j]
	default:
		return 0
	}
}

// refactorize rebuilds the LU factorization of the current basis, applies
// any singularity repairs to the basis bookkeeping, clears the eta file,
// recomputes basic variable values from scratch, and invalidates the
// maintained reduced costs (which are defined against the dropped etas and
// possibly-repaired basis). When nothing has changed since the last
// factorization it would rebuild the same bits, so it only invalidates the
// reduced costs: callers that refactorize to confirm a verdict on honest
// values recompute those either way.
func (s *simplex) refactorize() error {
	s.dValid = false
	if s.factored {
		return nil
	}
	lu, err := sparse.FactorizeBasis(s.lu, s.cf.a, s.basis, pivotTol*1e-2)
	if err != nil {
		return fmt.Errorf("lp: basis factorization: %w", err)
	}
	s.work.Refactorizations++
	for _, rep := range lu.Repairs() {
		evicted := s.basis[rep.Pos]
		logical := s.cf.n + rep.Row
		if evicted == logical {
			continue
		}
		// Park the evicted variable at its nearest finite bound.
		switch {
		case !math.IsInf(s.cf.lo[evicted], -1):
			s.vstat[evicted] = vAtLower
		case !math.IsInf(s.cf.hi[evicted], 1):
			s.vstat[evicted] = vAtUpper
		default:
			s.vstat[evicted] = vFree
		}
		// The logical may have been nonbasic elsewhere; it becomes basic here.
		s.vstat[logical] = vBasic
		s.basis[rep.Pos] = logical
	}
	s.lu = lu
	s.etas = s.etas[:0]
	s.etaIdx = s.etaIdx[:0]
	s.etaVal = s.etaVal[:0]
	if len(lu.Repairs()) > 0 {
		s.devexStale = true // repairs changed the basis discontinuously
	}
	s.computeXB()
	s.factored = len(lu.Repairs()) == 0
	return nil
}

// computeXB recomputes xB = B⁻¹ (b - N·x_N) from scratch through the
// sparse-RHS solve (warm-started bases of nearly-empty slots have very few
// nonzero right-hand positions; dense ones fall back). It is only called
// with an empty eta file (from refactorize).
func (s *simplex) computeXB() {
	copy(s.rhs, s.cf.b)
	total := s.cf.n + s.cf.m
	for j := 0; j < total; j++ {
		if s.vstat[j] == vBasic {
			continue
		}
		xj := s.nbValue(j)
		if xj == 0 {
			continue
		}
		s.cf.a.Column(j, func(row int, val float64) {
			s.rhs[row] -= val * xj
		})
	}
	s.deltaIdx = s.deltaIdx[:0]
	s.deltaVal = s.deltaVal[:0]
	for i, v := range s.rhs {
		if v != 0 {
			s.deltaIdx = append(s.deltaIdx, i)
			s.deltaVal = append(s.deltaVal, v)
		}
	}
	for i := range s.xB {
		s.xB[i] = 0
	}
	_, ok := s.lu.SolveSparseRHS(s.deltaIdx, s.deltaVal, s.xB, &s.ws, s.sparseLimit())
	s.noteSolve(ok, len(s.deltaIdx))
}

// noteSolve records one triangular solve in the hyper-sparse counters. n is
// the result-pattern size on the sparse path; a dense fall-back counts the
// full basis dimension.
func (s *simplex) noteSolve(ok bool, n int) {
	if ok {
		s.work.SparseSolves++
		s.work.SolveNNZ += n
	} else {
		s.work.DenseSolves++
		s.work.SolveNNZ += s.cf.m
	}
	s.work.SolveDim += s.cf.m
}

// ftran computes w = B⁻¹ a_q for structural-or-logical column q, leaving the
// touched positions in wIdx/wMark. w must be clear (all-zero, pattern empty)
// on entry; callers restore that invariant with clearW.
func (s *simplex) ftran(q int) {
	idx, val := s.cf.a.ColumnSlices(q)
	pat, ok := s.lu.SolveSparseRHS(idx, val, s.w, &s.ws, s.sparseLimit())
	if ok {
		s.wIdx = append(s.wIdx[:0], pat...)
	} else {
		// The dense fallback overwrote all of w; harvest the exact nonzeros
		// so downstream pattern consumers see a uniform representation.
		s.wIdx = s.wIdx[:0]
		for i, v := range s.w {
			if v != 0 {
				s.wIdx = append(s.wIdx, i)
			}
		}
	}
	s.noteSolve(ok, len(s.wIdx))
	for _, i := range s.wIdx {
		s.wMark[i] = true
	}
	// Product-form updates, spreading the pattern as they fill in.
	for k := range s.etas {
		e := &s.etas[k]
		if !s.wMark[e.r] {
			continue // w[e.r] is exactly zero: the eta cannot act
		}
		xr := s.w[e.r] / e.pivot
		s.w[e.r] = xr
		if xr == 0 {
			continue
		}
		for p := e.start; p < e.end; p++ {
			i := s.etaIdx[p]
			s.w[i] -= s.etaVal[p] * xr
			if !s.wMark[i] {
				s.wMark[i] = true
				s.wIdx = append(s.wIdx, i)
			}
		}
	}
}

// clearW restores the all-zero w invariant by wiping only the active pattern.
func (s *simplex) clearW() {
	for _, i := range s.wIdx {
		s.w[i] = 0
		s.wMark[i] = false
	}
	s.wIdx = s.wIdx[:0]
}

// btran computes y = B⁻ᵀ cB with the dense substitution path. It backs
// Bland's pricing loop, the periodic reduced-cost recompute,
// and the final dual extraction.
func (s *simplex) btran() {
	copy(s.rhs, s.cB)
	for i := len(s.etas) - 1; i >= 0; i-- {
		e := &s.etas[i]
		sum := 0.0
		for p := e.start; p < e.end; p++ {
			sum += s.etaVal[p] * s.rhs[s.etaIdx[p]]
		}
		s.rhs[e.r] = (s.rhs[e.r] - sum) / e.pivot
	}
	s.lu.SolveT(s.rhs, s.y, s.scratch)
}

// btranSparse computes rho = B⁻ᵀ v for a sparse v given in basis-position
// space (duplicates summed), leaving the result in original row space with
// its pattern in rhoIdx. rho must be clear on entry; callers restore the
// invariant with clearRho.
func (s *simplex) btranSparse(idx []int, val []float64) {
	// Stage 1: eta transposes, still in basis-position space. Each eta only
	// rewrites position e.r, so the pattern can grow by at most one per eta.
	s.btvIdx = s.btvIdx[:0]
	for p, k := range idx {
		if !s.btvMark[k] {
			s.btvMark[k] = true
			s.btvIdx = append(s.btvIdx, k)
			s.btv[k] = 0
		}
		s.btv[k] += val[p]
	}
	for i := len(s.etas) - 1; i >= 0; i-- {
		e := &s.etas[i]
		sum := 0.0
		for p := e.start; p < e.end; p++ {
			sum += s.etaVal[p] * s.btv[s.etaIdx[p]]
		}
		if s.btvMark[e.r] {
			s.btv[e.r] = (s.btv[e.r] - sum) / e.pivot
		} else if sum != 0 {
			s.btvMark[e.r] = true
			s.btvIdx = append(s.btvIdx, e.r)
			s.btv[e.r] = -sum / e.pivot
		}
	}
	s.posVal = s.posVal[:0]
	for _, k := range s.btvIdx {
		s.posVal = append(s.posVal, s.btv[k])
	}
	// Stage 2: the factorized transposed solve.
	pat, ok := s.lu.SolveTSparseRHS(s.btvIdx, s.posVal, s.rho, &s.ws, s.sparseLimit())
	for _, k := range s.btvIdx {
		s.btv[k] = 0
		s.btvMark[k] = false
	}
	s.btvIdx = s.btvIdx[:0]
	if ok {
		s.rhoIdx = append(s.rhoIdx[:0], pat...)
	} else {
		s.rhoIdx = s.rhoIdx[:0]
		for i, v := range s.rho {
			if v != 0 {
				s.rhoIdx = append(s.rhoIdx, i)
			}
		}
	}
	s.noteSolve(ok, len(s.rhoIdx))
}

func (s *simplex) clearRho() {
	for _, i := range s.rhoIdx {
		s.rho[i] = 0
	}
	s.rhoIdx = s.rhoIdx[:0]
}

// btranUnit computes rho = B⁻ᵀ e_r: the r-th row of B⁻¹, whose inner
// products with the columns of A form the simplex pivot row.
func (s *simplex) btranUnit(r int) {
	s.uIdx[0], s.uVal[0] = r, 1
	s.btranSparse(s.uIdx[:], s.uVal[:])
}

// pivotRowAlpha assembles alpha = rhoᵀ A over all columns by walking the CSR
// rows touched by the sparse BTRAN result — the hyper-sparse replacement for
// scanning every column of A.
func (s *simplex) pivotRowAlpha() {
	s.alphaIdx = s.alphaIdx[:0]
	for _, i := range s.rhoIdx {
		ri := s.rho[i]
		if ri == 0 {
			continue
		}
		cols, vals := s.at.RowSlices(i)
		for p, j := range cols {
			if !s.alphaMark[j] {
				s.alphaMark[j] = true
				s.alphaIdx = append(s.alphaIdx, j)
				s.alpha[j] = 0
			}
			s.alpha[j] += ri * vals[p]
		}
	}
}

func (s *simplex) clearAlpha() {
	for _, j := range s.alphaIdx {
		s.alpha[j] = 0
		s.alphaMark[j] = false
	}
	s.alphaIdx = s.alphaIdx[:0]
}

// reducedCost computes d_j = c_j - y·a_j with the supplied cost of j.
func (s *simplex) reducedCost(j int, cj float64) float64 {
	d := cj
	s.cf.a.Column(j, func(row int, val float64) { d -= val * s.y[row] })
	return d
}

// candidate evaluates nonbasic variable j for entry, returning its reduced
// cost and movement direction when it can improve the (phase-dependent)
// objective.
func (s *simplex) candidate(j int, phase1 bool) (d, dir float64, ok bool) {
	st := s.vstat[j]
	if st == vBasic || s.cf.lo[j] == s.cf.hi[j] {
		return 0, 0, false
	}
	cj := 0.0
	if !phase1 {
		cj = s.cf.c[j]
	}
	d = s.reducedCost(j, cj)
	switch st {
	case vAtLower:
		if d < -optTol {
			return d, 1, true
		}
	case vAtUpper:
		if d > optTol {
			return d, -1, true
		}
	case vFree:
		if d < -optTol {
			return d, 1, true
		}
		if d > optTol {
			return d, -1, true
		}
	}
	return 0, 0, false
}

// price selects an entering variable by Bland's rule for the anti-cycling
// path: it scans from index zero and takes the first candidate. phase1
// selects against the implicit infeasibility costs (zero for all nonbasic
// variables); phase 2 uses true costs. It returns the variable, its reduced
// cost, and the movement direction (+1 increase, -1 decrease), or q == -1 at
// optimality. It requires s.y to hold current simplex multipliers.
func (s *simplex) price(phase1 bool) (q int, dq, dir float64) {
	for j := 0; j < s.cf.n+s.cf.m; j++ {
		if d, cdir, ok := s.candidate(j, phase1); ok {
			return j, d, cdir
		}
	}
	return -1, 0, 0
}

// ensureDuals guarantees the maintained reduced-cost vector matches the
// requested phase, recomputing it from scratch when a refactorization, a
// phase switch, a Bland episode, or a cost change invalidated it, and
// rebuilding the devex reference framework when it has gone stale. Weight
// resets are deliberately decoupled from dual recomputes: a routine
// refactorization does not change the basis, so the reference framework —
// which approximates steepest-edge norms accumulated over many pivots —
// survives it; wiping it every refactorEvery pivots would discard exactly
// the information that steers devex out of degenerate plateaus.
func (s *simplex) ensureDuals(phase1 bool) {
	if s.devexStale || s.dPhase1 != phase1 {
		s.resetDevexWeights()
	}
	if s.dValid && s.dPhase1 == phase1 {
		return
	}
	s.recomputeD(phase1)
}

// resetDevexWeights restarts the devex reference framework from the current
// basis (all weights one).
func (s *simplex) resetDevexWeights() {
	for j := range s.devexW {
		s.devexW[j] = 1
	}
	s.devexStale = false
	s.work.DevexResets++
}

// recomputeD rebuilds the maintained reduced costs d_j = c_j − y·a_j for
// every nonbasic variable with an honest dense BTRAN. This is the periodic
// drift bound: it runs at least once per refactorization cycle.
func (s *simplex) recomputeD(phase1 bool) {
	if phase1 {
		s.phase1Costs()
	} else {
		for p := 0; p < s.cf.m; p++ {
			s.cB[p] = s.cf.c[s.basis[p]]
		}
	}
	s.btran()
	total := s.cf.n + s.cf.m
	for j := 0; j < total; j++ {
		if s.vstat[j] == vBasic {
			s.d[j] = 0
			continue
		}
		cj := 0.0
		if !phase1 {
			cj = s.cf.c[j]
		}
		s.d[j] = s.reducedCost(j, cj)
	}
	s.dValid, s.dPhase1 = true, phase1
	s.work.DualRecomputes++
}

// priceDevex selects the entering variable by devex pricing over the
// maintained reduced costs: the candidate maximizing d_j²/γ_j, where γ_j is
// the devex reference weight approximating ‖B⁻¹a_j‖². No columns of A are
// touched — this is a single pass over two dense arrays, which is what
// makes full-scan (rather than windowed) pricing affordable here.
func (s *simplex) priceDevex() (q int, dq, dir float64) {
	q = -1
	best := 0.0
	tol := optTol
	total := s.cf.n + s.cf.m
	for j := 0; j < total; j++ {
		st := s.vstat[j]
		if st == vBasic || s.cf.lo[j] == s.cf.hi[j] {
			continue
		}
		dj := s.d[j]
		var cdir float64
		switch st {
		case vAtLower:
			if dj >= -tol {
				continue
			}
			cdir = 1
		case vAtUpper:
			if dj <= tol {
				continue
			}
			cdir = -1
		default: // vFree
			if dj < -tol {
				cdir = 1
			} else if dj > tol {
				cdir = -1
			} else {
				continue
			}
		}
		if score := dj * dj / s.devexW[j]; score > best {
			best, q, dq, dir = score, j, dj, cdir
		}
	}
	return q, dq, dir
}

// priceMaintainedWindow selects the entering variable with a
// rotating-window partial Dantzig rule, reading the maintained
// reduced-cost vector instead of recomputing multipliers. It is the phase-1
// pricing rule: on the massively degenerate phase-1 problems of network LPs
// the devex criterion herds the iterate onto a plateau it cannot leave
// (hundreds of consecutive zero-length steps, then a Bland crawl), while the
// rotating window's enforced diversification walks off such plateaus in a
// handful of iterations. Phase 1 is a small fraction of total work — and is
// skipped almost entirely on warm starts — so the simpler rule costs little,
// and it still prices in O(window) over a dense array thanks to the
// maintained vector.
func (s *simplex) priceMaintainedWindow() (q int, dq, dir float64) {
	q = -1
	tol := optTol
	total := s.cf.n + s.cf.m
	window := total/8 + 50
	best := tol
	for scanned := 0; scanned < total; scanned++ {
		j := s.pricePos
		s.pricePos++
		if s.pricePos >= total {
			s.pricePos = 0
		}
		st := s.vstat[j]
		if st == vBasic || s.cf.lo[j] == s.cf.hi[j] {
			continue
		}
		dj := s.d[j]
		var cdir float64
		switch st {
		case vAtLower:
			if dj >= -tol {
				continue
			}
			cdir = 1
		case vAtUpper:
			if dj <= tol {
				continue
			}
			cdir = -1
		default: // vFree
			if dj < -tol {
				cdir = 1
			} else if dj > tol {
				cdir = -1
			} else {
				continue
			}
		}
		if a := math.Abs(dj); a > best {
			best, q, dq, dir = a, j, dj, cdir
		}
		if q >= 0 && scanned >= window {
			break
		}
	}
	return q, dq, dir
}

// phase1CostAt is the phase-1 cost of the basic variable at row position p:
// the gradient of its bound violation.
func (s *simplex) phase1CostAt(p int) float64 {
	ftol := feasTol
	bj := s.basis[p]
	switch {
	case s.xB[p] < s.cf.lo[bj]-ftol:
		return -1
	case s.xB[p] > s.cf.hi[bj]+ftol:
		return 1
	default:
		return 0
	}
}

// phase1Costs fills cB with the gradient of the infeasibility sum.
func (s *simplex) phase1Costs() {
	for p := 0; p < s.cf.m; p++ {
		s.cB[p] = s.phase1CostAt(p)
	}
}

// phase1DualDelta repairs the maintained phase-1 reduced costs after a step:
// phase-1 costs depend on which basic variables violate their bounds, and a
// step only moves the basic variables in the FTRAN pattern, so the cost
// change ΔcB is confined to wIdx. The correction Δd = −(B⁻ᵀ ΔcB)ᵀ A is one
// sparse BTRAN plus CSR row walks — the same machinery as the pivot row. It
// must run after the pivot (against the updated basis) and before clearW.
func (s *simplex) phase1DualDelta() {
	s.deltaIdx = s.deltaIdx[:0]
	s.deltaVal = s.deltaVal[:0]
	for _, p := range s.wIdx {
		nc := s.phase1CostAt(p)
		if nc != s.cB[p] {
			s.deltaIdx = append(s.deltaIdx, p)
			s.deltaVal = append(s.deltaVal, nc-s.cB[p])
			s.cB[p] = nc
		}
	}
	if len(s.deltaIdx) == 0 {
		return
	}
	s.btranSparse(s.deltaIdx, s.deltaVal)
	for _, i := range s.rhoIdx {
		vi := s.rho[i]
		if vi == 0 {
			continue
		}
		cols, vals := s.at.RowSlices(i)
		for p, j := range cols {
			s.d[j] -= vi * vals[p]
		}
	}
	s.clearRho()
}

// pivotDevex performs one maintained-dual pivot: it derives the pivot row
// from a sparse BTRAN of the leaving row's unit vector, updates the devex
// weights and the reduced costs of every column the pivot row touches,
// applies the basis change, and (in phase 1) repairs d for the infeasibility
// costs that the step toggled. dq is the maintained reduced cost of q that
// pricing selected.
func (s *simplex) pivotDevex(q int, dq, dir float64, res ratioResult, phase1 bool) error {
	if res.flip {
		// A bound flip leaves the basis — and therefore every reduced cost —
		// unchanged; only the phase-1 costs can move with xB.
		if err := s.pivot(q, dir, res); err != nil {
			return err
		}
		if phase1 && s.dValid {
			s.phase1DualDelta()
		}
		s.clearW()
		return nil
	}
	r := res.r
	if s.dValid {
		alphaQ := s.w[r]
		s.btranUnit(r)
		s.pivotRowAlpha()
		thetaD := dq / alphaQ
		gq := s.devexW[q]
		if gq > 1e7 {
			// The reference framework has drifted far from the current
			// basis; schedule a restart (classic devex restart criterion).
			s.devexStale = true
		}
		leaving := s.basis[r]
		for _, j := range s.alphaIdx {
			if s.vstat[j] == vBasic || j == q {
				continue
			}
			aj := s.alpha[j]
			s.d[j] -= thetaD * aj
			ratio := aj / alphaQ
			if g := ratio * ratio * gq; g > s.devexW[j] {
				s.devexW[j] = g
			}
		}
		s.d[q] = 0
		// The leaving variable's reduced cost becomes c_l − y'·a_l =
		// (c_l − y·a_l) − θ_d. In phase 2 the parenthesis is zero (a basic
		// variable prices out exactly); in phase 1 the variable's cost as a
		// nonbasic (zero) differs from its basic infeasibility gradient
		// cB[r], leaving a −cB[r] residue.
		dLeave := -thetaD
		if phase1 {
			dLeave -= s.cB[r]
		}
		s.d[leaving] = dLeave
		if g := gq / (alphaQ * alphaQ); g > 1 {
			s.devexW[leaving] = g
		} else {
			s.devexW[leaving] = 1
		}
		s.clearAlpha()
		s.clearRho()
		if phase1 {
			// The swap update above installed q's nonbasic phase-1 cost
			// (zero) as row r's basic cost; sync the maintained cB so
			// phase1DualDelta below measures its correction against that,
			// not against the departed variable's old cost.
			s.cB[r] = 0
		}
	}
	if err := s.pivot(q, dir, res); err != nil {
		return err
	}
	if phase1 && s.dValid {
		s.phase1DualDelta()
	}
	s.clearW()
	return nil
}

// ratioResult describes the outcome of a ratio test.
type ratioResult struct {
	t       float64 // step length
	r       int     // leaving row position, or -1 for a bound flip
	leaveAt vstatus // bound at which the leaving variable rests
	flip    bool    // entering variable moved to its opposite bound
	unbound bool    // no blocking constraint exists
}

// ratioTest determines how far the entering variable q can move in
// direction dir. All passes iterate the FTRAN pattern wIdx rather than every
// row: w is exactly zero off-pattern, and zero entries cannot block.
//
// Phase 2 (feasible, non-Bland) uses a Harris-style two-pass test: pass one
// computes the maximum step with all bounds relaxed by the feasibility
// tolerance; pass two picks, among the rows whose strict ratio fits within
// that step, the one with the largest pivot magnitude. Tolerating
// tolerance-sized bound violations in exchange for large pivots is what
// keeps the eta file numerically stable on degenerate network LPs.
//
// Phase 1 and Bland mode use the classic smallest-ratio test; in phase 1,
// basic variables that are currently infeasible block only when they reach
// the bound they violate (at which point they become feasible).
func (s *simplex) ratioTest(q int, dir float64, phase1 bool) ratioResult {
	if !phase1 && !s.bland {
		return s.ratioTestHarris(q, dir)
	}
	res := ratioResult{t: math.Inf(1), r: -1}
	ftol := feasTol
	// Bound flip of the entering variable itself.
	if !math.IsInf(s.cf.lo[q], -1) && !math.IsInf(s.cf.hi[q], 1) {
		res.t = s.cf.hi[q] - s.cf.lo[q]
		res.flip = true
	}
	bestPivot := 0.0
	for _, p := range s.wIdx {
		wp := s.w[p]
		if math.Abs(wp) < pivotTol {
			continue
		}
		delta := -dir * wp // rate of change of xB[p] per unit step
		bj := s.basis[p]
		xj, loj, hij := s.xB[p], s.cf.lo[bj], s.cf.hi[bj]
		var tp float64
		var at vstatus
		switch {
		case phase1 && xj < loj-ftol:
			if delta <= 0 {
				continue // moving further below: no block in phase 1
			}
			tp, at = (loj-xj)/delta, vAtLower
		case phase1 && xj > hij+ftol:
			if delta >= 0 {
				continue
			}
			tp, at = (hij-xj)/delta, vAtUpper
		case delta < 0:
			if math.IsInf(loj, -1) {
				continue
			}
			tp, at = (xj-loj)/(-delta), vAtLower
		case delta > 0:
			if math.IsInf(hij, 1) {
				continue
			}
			tp, at = (hij-xj)/delta, vAtUpper
		default:
			continue
		}
		if tp < 1e-9 {
			// Clamp tiny ratios to an exact zero so degenerate ties are
			// recognized as ties; Bland's rule needs this to terminate.
			tp = 0
		}
		better := false
		switch {
		case tp < res.t-1e-12:
			better = true
		case tp <= res.t+1e-12 && res.r >= 0:
			if s.bland {
				better = bj < s.basis[res.r]
			} else {
				better = math.Abs(wp) > bestPivot
			}
		case tp <= res.t+1e-12 && res.flip:
			better = true // prefer a pivot over a flip at equal length
		}
		if better {
			res.t, res.r, res.leaveAt, res.flip = tp, p, at, false
			bestPivot = math.Abs(wp)
		}
	}
	if math.IsInf(res.t, 1) {
		res.unbound = true
	}
	return res
}

// ratioTestHarris is the two-pass phase-2 ratio test described at ratioTest.
func (s *simplex) ratioTestHarris(q int, dir float64) ratioResult {
	ftol := feasTol
	// Pass 1: maximum step with bounds relaxed by ftol.
	tmax := math.Inf(1)
	for _, p := range s.wIdx {
		wp := s.w[p]
		if math.Abs(wp) < pivotTol {
			continue
		}
		delta := -dir * wp
		bj := s.basis[p]
		xj, loj, hij := s.xB[p], s.cf.lo[bj], s.cf.hi[bj]
		var tp float64
		switch {
		case delta < 0:
			if math.IsInf(loj, -1) {
				continue
			}
			tp = (xj - loj + ftol) / (-delta)
		default:
			if math.IsInf(hij, 1) {
				continue
			}
			tp = (hij + ftol - xj) / delta
		}
		if tp < tmax {
			tmax = tp
		}
	}
	// Bound flip of the entering variable: exact, preferred when shortest.
	if !math.IsInf(s.cf.lo[q], -1) && !math.IsInf(s.cf.hi[q], 1) {
		if flipT := s.cf.hi[q] - s.cf.lo[q]; flipT <= tmax {
			return ratioResult{t: flipT, r: -1, flip: true}
		}
	}
	if math.IsInf(tmax, 1) {
		return ratioResult{t: tmax, r: -1, unbound: true}
	}
	// Pass 2: largest pivot among rows whose strict ratio fits in tmax.
	res := ratioResult{t: 0, r: -1}
	bestPivot := 0.0
	for _, p := range s.wIdx {
		wp := s.w[p]
		if math.Abs(wp) < pivotTol {
			continue
		}
		delta := -dir * wp
		bj := s.basis[p]
		xj, loj, hij := s.xB[p], s.cf.lo[bj], s.cf.hi[bj]
		var tp float64
		var at vstatus
		switch {
		case delta < 0:
			if math.IsInf(loj, -1) {
				continue
			}
			tp, at = (xj-loj)/(-delta), vAtLower
		default:
			if math.IsInf(hij, 1) {
				continue
			}
			tp, at = (hij-xj)/delta, vAtUpper
		}
		if tp < 0 {
			tp = 0
		}
		if tp <= tmax && math.Abs(wp) > bestPivot {
			bestPivot = math.Abs(wp)
			res.t, res.r, res.leaveAt = tp, p, at
		}
	}
	if res.r >= 0 {
		// EXPAND-style minimum step: force strictly positive progress by
		// letting the leaving variable overshoot its bound by at most
		// ftol/2 (all other rows stay within ftol by the pass-1 bound).
		// Degenerate zero-length pivots are what make network LPs stall.
		if minStep := 0.5 * ftol / bestPivot; res.t < minStep {
			if minStep > tmax {
				minStep = tmax
			}
			if res.t < minStep {
				res.t = minStep
			}
		}
	}
	if res.r < 0 {
		// Every candidate's strict ratio exceeded tmax (can only happen
		// through rounding); fall back to the smallest strict ratio.
		for _, p := range s.wIdx {
			wp := s.w[p]
			if math.Abs(wp) < pivotTol {
				continue
			}
			delta := -dir * wp
			bj := s.basis[p]
			xj, loj, hij := s.xB[p], s.cf.lo[bj], s.cf.hi[bj]
			var tp float64
			var at vstatus
			switch {
			case delta < 0:
				if math.IsInf(loj, -1) {
					continue
				}
				tp, at = (xj-loj)/(-delta), vAtLower
			default:
				if math.IsInf(hij, 1) {
					continue
				}
				tp, at = (hij-xj)/delta, vAtUpper
			}
			if tp < 0 {
				tp = 0
			}
			if res.r < 0 || tp < res.t {
				res.t, res.r, res.leaveAt = tp, p, at
			}
		}
		if res.r < 0 {
			return ratioResult{t: math.Inf(1), r: -1, unbound: true}
		}
	}
	return res
}

// pivot applies the step chosen by the ratio test, recording the eta in the
// pooled store. Only the FTRAN pattern is touched.
func (s *simplex) pivot(q int, dir float64, res ratioResult) error {
	s.factored = false
	t := res.t
	enterVal := s.nbValue(q) // capture before any status change
	// Move all basic variables along the direction.
	if t != 0 {
		for _, p := range s.wIdx {
			if wp := s.w[p]; wp != 0 {
				s.xB[p] -= dir * wp * t
			}
		}
	}
	if res.flip {
		if s.vstat[q] == vAtLower {
			s.vstat[q] = vAtUpper
		} else {
			s.vstat[q] = vAtLower
		}
		return nil
	}
	r := res.r
	leaving := s.basis[r]
	s.vstat[leaving] = res.leaveAt
	s.vstat[q] = vBasic
	s.basis[r] = q
	s.xB[r] = enterVal + dir*t
	// Record the eta transformation for subsequent FTRAN/BTRAN.
	start := len(s.etaIdx)
	for _, i := range s.wIdx {
		if i != r && s.w[i] != 0 {
			s.etaIdx = append(s.etaIdx, i)
			s.etaVal = append(s.etaVal, s.w[i])
		}
	}
	s.etas = append(s.etas, eta{start: start, end: len(s.etaIdx), r: r, pivot: s.w[r]})
	if len(s.etas) >= s.opt.refactorEvery {
		return s.refactorize()
	}
	return nil
}

// infeasibility reports the total bound violation of the basic variables.
func (s *simplex) infeasibility() float64 {
	sum := 0.0
	for p := 0; p < s.cf.m; p++ {
		bj := s.basis[p]
		if v := s.cf.lo[bj] - s.xB[p]; v > 0 {
			sum += v
		}
		if v := s.xB[p] - s.cf.hi[bj]; v > 0 {
			sum += v
		}
	}
	return sum
}

// noteStep updates anti-cycling state after a step of length t. Bland mode
// engages after a long degenerate stall and disengages only after a run of
// genuinely progressing steps, so a stall-progress-stall oscillation cannot
// defeat it.
func (s *simplex) noteStep(t float64) {
	if t <= 1e-10 {
		s.stallCount++
		s.goodSteps = 0
		if s.stallCount > 300 && !s.bland {
			s.bland = true
			s.devexStale = true // restart the reference framework afterwards
		}
		return
	}
	if s.bland {
		s.goodSteps++
		if s.goodSteps >= 20 {
			s.bland = false
			s.stallCount = 0
			s.goodSteps = 0
		}
		return
	}
	s.stallCount = 0
}

// clearPerturbation strips the deterministic cost perturbation mid-solve,
// restoring the honest costs. It reports whether anything changed; the
// latch guarantees it fires at most once per solve, so the phase-2 loop
// cannot spin on it.
func (s *simplex) clearPerturbation() bool {
	if s.perturbOff {
		return false
	}
	s.perturbOff = true
	changed := false
	for j := range s.cf.c {
		if s.cf.c[j] != s.cf.c0[j] {
			changed = true
			break
		}
	}
	copy(s.cf.c, s.cf.c0)
	if changed {
		s.dValid = false // maintained reduced costs priced the old costs
	}
	return changed
}

// Solve optimizes the model with the sparse revised simplex and returns the
// solution. The model's variables and constraints are not modified, but the
// Model retains the solver's workspace between calls, so Solve is not safe
// for concurrent use on one Model. The returned Solution shares nothing with
// that workspace. Status is always set on the returned Solution when err is
// nil.
//
// With Options.InitialBasis the simplex is seeded from the snapshot (falling
// back to a cold start when the snapshot does not fit). The workspace is
// handed back only when the solve succeeds: one that errors may have stopped
// anywhere, so the next solve starts from a new workspace instead.
func (m *Model) Solve(opts *Options) (*Solution, error) {
	s, err := m.loadSimplex(m.workspace, opts)
	m.workspace = nil
	if err != nil {
		return nil, err
	}
	if b := s.opt.InitialBasis; b != nil && s.tryWarmStart(b) {
		s.warmStarted = true
	} else if err := s.coldStart(); err != nil {
		return nil, err
	}

	status, err := s.run()
	if err != nil {
		return nil, err
	}
	sol := s.solution(m, status)
	m.workspace = s
	return sol, nil
}

// coldStart installs the all-logical basis; structurals rest at a finite
// bound.
func (s *simplex) coldStart() error {
	s.factored = false // a failed warm start may have factorized its basis
	cf := &s.cf
	for j := 0; j < cf.n; j++ {
		switch {
		case !math.IsInf(cf.lo[j], -1):
			s.vstat[j] = vAtLower
		case !math.IsInf(cf.hi[j], 1):
			s.vstat[j] = vAtUpper
		default:
			s.vstat[j] = vFree
		}
	}
	for i := 0; i < cf.m; i++ {
		s.basis[i] = cf.n + i
		s.vstat[cf.n+i] = vBasic
	}
	return s.refactorize()
}

// run executes both simplex phases and returns the final status. Phase 2
// re-enters phase 1 when accumulated rounding pushes basic variables
// materially outside their bounds (bounded number of times, as a safety
// net against numerical wandering).
func (s *simplex) run() (Status, error) {
	const maxPhaseRestarts = 25
	restarts := 0
	for {
		st, done, err := s.runPhase1()
		if err != nil || done {
			return st, err
		}
		st, done, err = s.runPhase2()
		if err != nil || done {
			return st, err
		}
		// Phase 2 detected drift; go around again.
		restarts++
		if restarts > maxPhaseRestarts {
			return IterLimit, nil
		}
	}
}

// runPhase1 drives out primal infeasibility. done is false only when the
// caller should proceed to phase 2. Infeasibility is only ever declared
// from the dual criterion (no improving direction); numerical drift
// discovered after a refactorization sends the loop back to pivoting. The
// devex path additionally re-verifies a no-direction verdict on honestly
// recomputed reduced costs before concluding, since the maintained vector
// it priced may have drifted.
func (s *simplex) runPhase1() (Status, bool, error) {
	exitTol := feasTol * float64(1+s.cf.m)
	confirmed := false
	for {
		if s.work.Iterations >= s.opt.maxIterations {
			return IterLimit, true, nil
		}
		if s.infeasibility() <= exitTol {
			// Clean up drift and confirm on honestly recomputed values.
			if err := s.refactorize(); err != nil {
				return 0, true, err
			}
			if s.infeasibility() <= 2*exitTol {
				break
			}
			continue // drift was hiding real infeasibility: keep pivoting
		}
		if !s.bland {
			s.ensureDuals(true)
			s.debugCheckDuals(true)
			q, dq, dir := s.priceMaintainedWindow()
			if q < 0 {
				// No improving direction: the dual certificate of phase-1
				// optimality. Recompute honestly before concluding.
				if err := s.refactorize(); err != nil {
					return 0, true, err
				}
				if s.infeasibility() <= 2*exitTol {
					break
				}
				if !confirmed {
					confirmed = true // refactorize invalidated d: re-price
					continue
				}
				return Infeasible, true, nil
			}
			confirmed = false
			s.ftran(q)
			res := s.ratioTest(q, dir, true)
			if res.unbound {
				// A descent direction for a nonnegative objective cannot be
				// unbounded; treat as numerical breakdown and refactorize once.
				if err := s.refactorize(); err != nil {
					return 0, true, err
				}
				if res2 := s.ratioTest(q, dir, true); !res2.unbound {
					res = res2
				} else {
					return 0, true, fmt.Errorf("lp: phase-1 ratio test found no blocking bound")
				}
			}
			if err := s.pivotDevex(q, dq, dir, res, true); err != nil {
				return 0, true, err
			}
			s.noteStep(res.t)
			s.work.Iterations++
			s.work.Phase1Iter++
			continue
		}
		// Bland's anti-cycling path recomputes the multipliers densely every
		// iteration.
		s.phase1Costs()
		s.btran()
		q, _, dir := s.price(true)
		if q < 0 {
			if err := s.refactorize(); err != nil {
				return 0, true, err
			}
			if s.infeasibility() > 2*exitTol {
				return Infeasible, true, nil
			}
			break
		}
		s.ftran(q)
		res := s.ratioTest(q, dir, true)
		if res.unbound {
			if err := s.refactorize(); err != nil {
				return 0, true, err
			}
			if res2 := s.ratioTest(q, dir, true); !res2.unbound {
				res = res2
			} else {
				return 0, true, fmt.Errorf("lp: phase-1 ratio test found no blocking bound")
			}
		}
		if err := s.pivot(q, dir, res); err != nil {
			return 0, true, err
		}
		s.dValid = false // pivoted without maintaining d
		s.clearW()
		s.noteStep(res.t)
		s.work.Iterations++
		s.work.Phase1Iter++
	}
	s.bland, s.stallCount, s.goodSteps = false, 0, 0
	return 0, false, nil
}

// runPhase2 optimizes the true costs. done is false only when feasibility
// drifted beyond tolerance and phase 1 must be re-entered. On the devex
// path a claimed optimum (or unbounded ray) is confirmed once against
// honestly recomputed reduced costs before it is returned, bounding the
// damage maintained-dual drift can do.
func (s *simplex) runPhase2() (Status, bool, error) {
	driftLimit := math.Sqrt(feasTol) * float64(1+s.cf.m)
	confirmed := false
	unboundConfirmed := false
	for {
		if s.work.Iterations >= s.opt.maxIterations {
			return IterLimit, true, nil
		}
		if s.work.Iterations%16 == 0 && s.infeasibility() > driftLimit {
			if err := s.refactorize(); err != nil {
				return 0, true, err
			}
			if s.infeasibility() > driftLimit {
				return 0, false, nil // genuinely drifted: redo phase 1
			}
		}
		if !s.bland {
			s.ensureDuals(false)
			s.debugCheckDuals(false)
			q, dq, dir := s.priceDevex()
			if q < 0 {
				if !confirmed {
					confirmed = true
					if err := s.refactorize(); err != nil {
						return 0, true, err
					}
					continue // d invalidated: recompute and re-price
				}
				return Optimal, true, nil
			}
			confirmed = false
			s.ftran(q)
			res := s.ratioTest(q, dir, false)
			if res.unbound {
				s.clearW()
				// An unbounded certificate under perturbed costs may be an
				// artifact: a truly zero-cost ray picks up a tiny perturbed
				// cost and looks improving. Strip the perturbation and
				// re-price with the honest costs before concluding; with
				// maintained duals, additionally confirm on recomputed d.
				if s.clearPerturbation() {
					continue
				}
				if !unboundConfirmed {
					unboundConfirmed = true
					if err := s.refactorize(); err != nil {
						return 0, true, err
					}
					continue
				}
				return Unbounded, true, nil
			}
			unboundConfirmed = false
			if err := s.pivotDevex(q, dq, dir, res, false); err != nil {
				return 0, true, err
			}
			s.noteStep(res.t)
			s.work.Iterations++
			continue
		}
		// Bland's anti-cycling path.
		for p := 0; p < s.cf.m; p++ {
			s.cB[p] = s.cf.c[s.basis[p]]
		}
		s.btran()
		q, _, dir := s.price(false)
		if q < 0 {
			return Optimal, true, nil
		}
		s.ftran(q)
		res := s.ratioTest(q, dir, false)
		if res.unbound {
			s.clearW()
			if s.clearPerturbation() {
				continue
			}
			return Unbounded, true, nil
		}
		if err := s.pivot(q, dir, res); err != nil {
			return 0, true, err
		}
		s.dValid = false // pivoted without maintaining d
		s.clearW()
		s.noteStep(res.t)
		s.work.Iterations++
	}
}

// solution extracts a Solution in the original model's terms.
func (s *simplex) solution(m *Model, status Status) *Solution {
	sol := &Solution{
		Status:      status,
		X:           make([]float64, s.cf.n),
		Dual:        make([]float64, s.cf.m),
		ReducedObj:  make([]float64, s.cf.n),
		Basis:       s.captureBasis(),
		WarmStarted: s.warmStarted,
		Work:        s.work,
	}
	if status != Optimal && status != IterLimit {
		return sol
	}
	for j := 0; j < s.cf.n; j++ {
		if s.vstat[j] != vBasic {
			sol.X[j] = s.nbValue(j)
		}
	}
	for p, bj := range s.basis {
		if bj < s.cf.n {
			sol.X[bj] = s.xB[p]
		}
	}
	// Snap values that the EXPAND anti-degeneracy step nudged marginally
	// past a bound back onto it.
	snapTol := 8 * feasTol
	for j := 0; j < s.cf.n; j++ {
		if lo := s.cf.lo[j]; !math.IsInf(lo, -1) && math.Abs(sol.X[j]-lo) <= snapTol*(1+math.Abs(lo)) {
			sol.X[j] = lo
			continue
		}
		if hi := s.cf.hi[j]; !math.IsInf(hi, 1) && math.Abs(sol.X[j]-hi) <= snapTol*(1+math.Abs(hi)) {
			sol.X[j] = hi
		}
	}
	// Duals and reduced costs from the final basis with the original
	// (unperturbed) costs.
	for p := 0; p < s.cf.m; p++ {
		s.cB[p] = s.cf.c0[s.basis[p]]
	}
	s.btran()
	copy(sol.Dual, s.y)
	for j := 0; j < s.cf.n; j++ {
		if s.vstat[j] == vBasic {
			continue
		}
		sol.ReducedObj[j] = s.reducedCost(j, s.cf.c0[j])
	}
	obj := 0.0
	for j := 0; j < s.cf.n; j++ {
		obj += s.cf.c0[j] * sol.X[j]
	}
	if m.maximize {
		obj = -obj
		for i := range sol.Dual {
			sol.Dual[i] = -sol.Dual[i]
		}
		for j := range sol.ReducedObj {
			sol.ReducedObj[j] = -sol.ReducedObj[j]
		}
	}
	sol.Objective = obj
	return sol
}
