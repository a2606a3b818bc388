package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// copyModel rebuilds src into dst through the public construction API,
// after a Reset of dst. The copy has identical variables, rows and
// coefficient order, so both models assemble the same computational form.
func copyModel(dst, src *Model) *Model {
	dst.Reset()
	if src.maximize {
		dst.SetMaximize()
	}
	for j := range src.obj {
		dst.AddVariable(src.lo[j], src.hi[j], src.obj[j], src.names[j])
	}
	for _, r := range src.rows {
		idx := make([]VarID, len(r.idx))
		for p, j := range r.idx {
			idx[p] = VarID(j)
		}
		if _, err := dst.AddConstraint(r.sense, r.rhs, idx, r.val); err != nil {
			panic(err)
		}
	}
	return dst
}

// solutionDiff describes the first difference between two solutions, bit
// for bit, or returns "" when they are identical.
func solutionDiff(got, want *Solution) string {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case got.Status != want.Status:
		return fmt.Sprintf("status %v, want %v", got.Status, want.Status)
	case !bits(got.Objective, want.Objective):
		return fmt.Sprintf("objective %v, want %v", got.Objective, want.Objective)
	case !slices.EqualFunc(got.X, want.X, bits):
		return fmt.Sprintf("X %v, want %v", got.X, want.X)
	case !slices.EqualFunc(got.Dual, want.Dual, bits):
		return fmt.Sprintf("Dual %v, want %v", got.Dual, want.Dual)
	case !slices.EqualFunc(got.ReducedObj, want.ReducedObj, bits):
		return fmt.Sprintf("ReducedObj %v, want %v", got.ReducedObj, want.ReducedObj)
	case (got.Basis == nil) != (want.Basis == nil):
		return fmt.Sprintf("basis %v, want %v", got.Basis, want.Basis)
	case got.Basis != nil && (got.Basis.NumVars != want.Basis.NumVars || got.Basis.NumRows != want.Basis.NumRows ||
		!slices.Equal(got.Basis.Status, want.Basis.Status)):
		return fmt.Sprintf("basis %+v, want %+v", *got.Basis, *want.Basis)
	case got.WarmStarted != want.WarmStarted:
		return fmt.Sprintf("warm started %v, want %v", got.WarmStarted, want.WarmStarted)
	case got.Work != want.Work:
		return fmt.Sprintf("work %+v, want %+v", got.Work, want.Work)
	}
	return ""
}

// FuzzRecycledSolve pins the workspace contract of Model.Solve: a solve in
// the workspace a Model retains from its previous solves starts in exactly
// a fresh solve's state. One Model is driven through a random sequence of
// cold and warm solves, column and row additions followed by a re-solve from
// the extended basis (the SolvePriced round protocol), Resets to smaller and
// larger models, and infeasible, iteration-limited and erroring solves in
// between, under varied refactorization and perturbation settings. Every
// result must equal the same solve of a fresh copy of the model bit for
// bit: status, objective, primal and dual values, reduced costs, basis and
// work counters.
func FuzzRecycledSolve(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 2, 3, 1})
	f.Add(int64(2), []byte{4, 0, 5, 1, 6, 0, 7, 1})
	f.Add(int64(3), []byte{0, 7, 1, 6, 2, 3, 4, 8, 0, 5})
	f.Add(int64(4), []byte{5, 2, 2, 2, 3, 3, 4, 1, 0})
	f.Add(int64(5), []byte{8, 0, 1, 6, 6, 7, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 16 {
			ops = ops[:16]
		}
		rng := rand.New(rand.NewSource(seed))
		m := copyModel(NewModel(), randomFlowModel(rng))
		var basis *Basis
		for step, op := range ops {
			opts := &Options{
				refactorEvery: []int{0, 3, 7}[rng.Intn(3)],
				perturb:       []float64{0, -1, 1e-5}[rng.Intn(3)],
			}
			var what string
			switch op % 9 {
			case 0:
				what = "cold solve"
			case 1:
				what = "warm solve"
				opts.InitialBasis = basis
			case 2:
				what = "column added"
				nr := m.NumConstraints()
				var cons []ConID
				var coef []float64
				for _, i := range rng.Perm(nr)[:1+rng.Intn(min(nr, 3))] {
					cons = append(cons, ConID(i))
					coef = append(coef, float64(rng.Intn(5)-2))
				}
				if _, err := m.AddColumn(0, float64(1+rng.Intn(10)), float64(rng.Intn(10)), "", cons, coef); err != nil {
					t.Fatal(err)
				}
				opts.InitialBasis = extendBasis(basis, 1, 0)
			case 3:
				what = "row added"
				nv := m.NumVariables()
				var idx []VarID
				var val []float64
				for _, j := range rng.Perm(nv)[:1+rng.Intn(min(nv, 4))] {
					idx = append(idx, VarID(j))
					val = append(val, 1)
				}
				if _, err := m.AddConstraint(LE, float64(5+rng.Intn(30)), idx, val); err != nil {
					t.Fatal(err)
				}
				opts.InitialBasis = extendBasis(basis, 0, 1)
			case 4:
				what = "reset smaller"
				copyModel(m, flowModel(rng, 5))
			case 5:
				what = "reset larger"
				copyModel(m, flowModel(rng, 14))
			case 6:
				what = "infeasible"
				copyModel(m, randomFlowModel(rng))
				// The first arc has a finite capacity; demand more than it.
				if _, err := m.AddConstraint(GE, m.hi[0]+1, []VarID{0}, []float64{1}); err != nil {
					t.Fatal(err)
				}
			case 7:
				what = "iteration limit"
				opts.maxIterations = 1 + rng.Intn(4)
				opts.InitialBasis = basis
			case 8:
				what = "build error"
				copyModel(m, randomFlowModel(rng))
				m.AddVariable(1, 0, 0, "empty")
			}
			got, gerr := m.Solve(opts)
			want, werr := copyModel(NewModel(), m).Solve(opts)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("step %d (%s): recycled error %v, fresh error %v", step, what, gerr, werr)
			}
			if gerr != nil {
				if op%9 == 8 {
					// Leave the failing model behind for the next step.
					copyModel(m, randomFlowModel(rng))
				}
				continue
			}
			if d := solutionDiff(got, want); d != "" {
				t.Fatalf("step %d (%s): recycled solve differs from a fresh one: %s", step, what, d)
			}
			basis = got.Basis
		}
	})
}

// TestRecycledSolveAllocs pins the storage reuse of Model.Solve: once a
// Model has solved, re-solving it from its own basis assembles, factorizes
// and iterates entirely in the retained workspace, so the only allocations
// are the returned Solution's: the struct, X, Dual, ReducedObj, and the
// Basis with its Status.
func TestRecycledSolveAllocs(t *testing.T) {
	cases := []struct {
		name  string
		model func(*rand.Rand) *Model
	}{
		{"random", randomFlowModel},
		{"large", largeFlowModel},
	}
	if lpdebug {
		t.Skip("the lpdebug dual audit allocates on every pricing round")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.model(rand.New(rand.NewSource(12)))
			sol, err := m.Solve(nil)
			if err != nil {
				t.Fatal(err)
			}
			opts := &Options{InitialBasis: sol.Basis}
			resolve := func() {
				if sol, err := m.Solve(opts); err != nil || sol.Status != Optimal || !sol.WarmStarted {
					t.Fatalf("re-solve: %v, %+v", err, sol)
				}
			}
			resolve()
			const budget = 6
			allocs := testing.AllocsPerRun(20, resolve)
			t.Logf("allocs/re-solve: %.1f", allocs)
			if allocs > budget {
				t.Fatalf("re-solve allocates %.1f times, want <= %d", allocs, budget)
			}
		})
	}
}
