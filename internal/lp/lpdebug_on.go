//go:build lpdebug

package lp

import (
	"fmt"
	"math"
	"os"
)

// lpdebug reports whether the build carries -tags lpdebug.
const lpdebug = true

// debugCheckDuals audits the maintained reduced-cost vector against an
// honest dense recomputation from the current factorization and eta file.
// It is compiled only under -tags lpdebug; the drift tolerance is generous
// because the maintained updates legitimately accumulate rounding between
// refactorizations — the check is after gross bookkeeping mistakes (wrong
// pivot-row pattern, missed phase-1 cost change), not ulp noise.
func (s *simplex) debugCheckDuals(phase1 bool) {
	if !s.dValid || s.dPhase1 != phase1 {
		return
	}
	m := s.cf.m
	cB := make([]float64, m)
	if phase1 {
		for p := 0; p < m; p++ {
			cB[p] = s.phase1CostAt(p)
		}
	} else {
		for p := 0; p < m; p++ {
			cB[p] = s.cf.c[s.basis[p]]
		}
	}
	// Dense BTRAN on private buffers so solver state is untouched.
	rhs := make([]float64, m)
	copy(rhs, cB)
	for i := len(s.etas) - 1; i >= 0; i-- {
		e := &s.etas[i]
		sum := 0.0
		for p := e.start; p < e.end; p++ {
			sum += s.etaVal[p] * rhs[s.etaIdx[p]]
		}
		rhs[e.r] = (rhs[e.r] - sum) / e.pivot
	}
	y := make([]float64, m)
	scratch := make([]float64, m)
	s.lu.SolveT(rhs, y, scratch)

	cmax := 1.0
	for _, c := range s.cf.c {
		if a := math.Abs(c); a > cmax {
			cmax = a
		}
	}
	tol := 1e-6 * cmax * float64(1+len(s.etas))
	total := s.cf.n + s.cf.m
	worst, worstJ := 0.0, -1
	for j := 0; j < total; j++ {
		if s.vstat[j] == vBasic {
			continue
		}
		cj := 0.0
		if !phase1 {
			cj = s.cf.c[j]
		}
		honest := cj
		s.cf.a.Column(j, func(row int, val float64) { honest -= val * y[row] })
		if drift := math.Abs(honest - s.d[j]); drift > worst {
			worst, worstJ = drift, j
		}
	}
	if worst > tol {
		if os.Getenv("LPDEBUG_DUMP") != "" {
			for j := 0; j < total; j++ {
				if s.vstat[j] == vBasic {
					continue
				}
				cj := 0.0
				if !phase1 {
					cj = s.cf.c[j]
				}
				honest := cj
				s.cf.a.Column(j, func(row int, val float64) { honest -= val * y[row] })
				fmt.Fprintf(os.Stderr, "  col %d vstat %d honest %.6g maintained %.6g\n", j, s.vstat[j], honest, s.d[j])
			}
			fmt.Fprintf(os.Stderr, "  basis %v cB %v honest-cB %v xB %v\n", s.basis, s.cB, cB, s.xB)
		}
		fmt.Fprintf(os.Stderr,
			"lpdebug: maintained reduced-cost drift %.3e at column %d (tol %.3e, phase1=%v, iter %d, %d etas)\n",
			worst, worstJ, tol, phase1, s.work.Iterations, len(s.etas))
		panic("lpdebug: maintained reduced costs drifted beyond tolerance")
	}
}
