package lp

import (
	"math/rand"
	"testing"
)

// solveWithBland solves m from a cold start with Bland's anti-cycling rule
// engaged at the start of each phase, exactly as noteStep engages it after a
// long degenerate stall. It reports whether the rule was still engaged when
// the solve ended, i.e. whether Bland's loop delivered the final verdict.
func solveWithBland(t *testing.T, m *Model) (*Solution, bool) {
	t.Helper()
	s, err := m.loadSimplex(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.coldStart(); err != nil {
		t.Fatal(err)
	}
	for restart := 0; ; restart++ {
		if restart > 25 {
			t.Fatal("phase 2 kept drifting back to phase 1")
		}
		s.bland = true
		st, done, err := s.runPhase1()
		if err != nil {
			t.Fatal(err)
		}
		if !done {
			s.bland = true
			st, done, err = s.runPhase2()
			if err != nil {
				t.Fatal(err)
			}
		}
		if done {
			return s.solution(m, st), s.bland
		}
	}
}

// TestBlandMatchesDense covers the pricing loop only Bland's rule reaches
// (price, the per-iteration dense btran, and pivot): no other test engages
// the rule, because it takes a 300-step degenerate stall to trigger. Every
// verdict must agree with the dense tableau reference, and on enough
// instances Bland's loop must be the one that declared it.
func TestBlandMatchesDense(t *testing.T) {
	cases := []struct {
		name  string
		model func(*rand.Rand) *Model
	}{
		{"random", randomModel},
		{"flow", randomFlowModel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			blandVerdicts := 0
			const trials = 200
			for trial := 0; trial < trials; trial++ {
				m := tc.model(rng)
				s, bland := solveWithBland(t, m)
				d, err := m.SolveDense()
				if err != nil {
					t.Fatal(err)
				}
				if s.Status == IterLimit || d.Status == IterLimit {
					continue
				}
				checkAgainstDense(t, trial, m, s, d)
				if bland {
					blandVerdicts++
				}
			}
			if blandVerdicts < trials/4 {
				t.Fatalf("Bland's loop declared only %d of %d verdicts", blandVerdicts, trials)
			}
			t.Logf("Bland's loop declared %d of %d verdicts", blandVerdicts, trials)
		})
	}
}
