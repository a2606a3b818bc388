package lp

import (
	"math"
	"math/rand"
	"testing"
)

func pinf() float64 { return math.Inf(1) }
func ninf() float64 { return math.Inf(-1) }

// solveBoth runs both solvers and fails the test on solver errors.
func solveBoth(t *testing.T, m *Model) (*Solution, *Solution) {
	t.Helper()
	s, err := m.Solve(nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	d, err := m.SolveDense()
	if err != nil {
		t.Fatalf("SolveDense: %v", err)
	}
	return s, d
}

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x <= 2, x,y >= 0 -> x=2, y=2, obj=10.
	m := NewModel()
	m.SetMaximize()
	x := m.AddVariable(0, pinf(), 3, "x")
	y := m.AddVariable(0, pinf(), 2, "y")
	mustCon(t, m, LE, 4, []VarID{x, y}, []float64{1, 1})
	mustCon(t, m, LE, 2, []VarID{x}, []float64{1})
	s, d := solveBoth(t, m)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if math.Abs(s.Objective-10) > 1e-8 {
		t.Errorf("objective = %v, want 10", s.Objective)
	}
	if math.Abs(s.Value(x)-2) > 1e-8 || math.Abs(s.Value(y)-2) > 1e-8 {
		t.Errorf("x=%v y=%v, want 2, 2", s.Value(x), s.Value(y))
	}
	if math.Abs(d.Objective-10) > 1e-8 {
		t.Errorf("dense objective = %v, want 10", d.Objective)
	}
}

func TestSimpleMinimizeWithEquality(t *testing.T) {
	// min x + 2y s.t. x + y = 3, y >= 1 -> x=2, y=1, obj=4.
	m := NewModel()
	x := m.AddVariable(0, pinf(), 1, "x")
	y := m.AddVariable(1, pinf(), 2, "y")
	mustCon(t, m, EQ, 3, []VarID{x, y}, []float64{1, 1})
	s, d := solveBoth(t, m)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-4) > 1e-8 {
		t.Errorf("objective = %v, want 4", s.Objective)
	}
	if math.Abs(d.Objective-4) > 1e-8 {
		t.Errorf("dense objective = %v, want 4", d.Objective)
	}
}

func TestUpperBoundedVariables(t *testing.T) {
	// max x + y, x in [0,1], y in [0,2], x + y <= 2.5 -> obj 2.5.
	m := NewModel()
	m.SetMaximize()
	x := m.AddVariable(0, 1, 1, "x")
	y := m.AddVariable(0, 2, 1, "y")
	mustCon(t, m, LE, 2.5, []VarID{x, y}, []float64{1, 1})
	s, _ := solveBoth(t, m)
	if s.Status != Optimal || math.Abs(s.Objective-2.5) > 1e-8 {
		t.Fatalf("got %v obj %v, want optimal 2.5", s.Status, s.Objective)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x subject to x >= -5 via a constraint (variable itself free).
	m := NewModel()
	x := m.AddVariable(ninf(), pinf(), 1, "x")
	mustCon(t, m, GE, -5, []VarID{x}, []float64{1})
	s, d := solveBoth(t, m)
	if s.Status != Optimal || math.Abs(s.Objective+5) > 1e-8 {
		t.Fatalf("got %v obj %v, want optimal -5", s.Status, s.Objective)
	}
	if d.Status != Optimal || math.Abs(d.Objective+5) > 1e-8 {
		t.Fatalf("dense got %v obj %v, want optimal -5", d.Status, d.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 1, 1, "x")
	mustCon(t, m, GE, 5, []VarID{x}, []float64{1})
	s, d := solveBoth(t, m)
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
	if d.Status != Infeasible {
		t.Errorf("dense status = %v, want infeasible", d.Status)
	}
}

func TestInfeasibleEqualitySystem(t *testing.T) {
	// x + y = 1 and x + y = 2 cannot both hold.
	m := NewModel()
	x := m.AddVariable(ninf(), pinf(), 0, "x")
	y := m.AddVariable(ninf(), pinf(), 0, "y")
	mustCon(t, m, EQ, 1, []VarID{x, y}, []float64{1, 1})
	mustCon(t, m, EQ, 2, []VarID{x, y}, []float64{1, 1})
	s, d := solveBoth(t, m)
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
	if d.Status != Infeasible {
		t.Errorf("dense status = %v, want infeasible", d.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := NewModel()
	m.SetMaximize()
	x := m.AddVariable(0, pinf(), 1, "x")
	y := m.AddVariable(0, pinf(), 0, "y")
	mustCon(t, m, GE, 1, []VarID{x, y}, []float64{1, 1})
	s, d := solveBoth(t, m)
	if s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
	if d.Status != Unbounded {
		t.Errorf("dense status = %v, want unbounded", d.Status)
	}
}

func TestNoConstraints(t *testing.T) {
	// Pure bound optimization: min -x with x in [0, 7] -> x = 7.
	m := NewModel()
	x := m.AddVariable(0, 7, -1, "x")
	s, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Value(x)-7) > 1e-9 {
		t.Fatalf("got %v x=%v, want optimal x=7", s.Status, s.Value(x))
	}
}

func TestFixedVariables(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(3, 3, 1, "x") // fixed at 3
	y := m.AddVariable(0, pinf(), 1, "y")
	mustCon(t, m, GE, 5, []VarID{x, y}, []float64{1, 1})
	s, _ := solveBoth(t, m)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Value(x)-3) > 1e-9 || math.Abs(s.Value(y)-2) > 1e-8 {
		t.Errorf("x=%v y=%v, want 3, 2", s.Value(x), s.Value(y))
	}
}

func TestNegativeRHSAndGE(t *testing.T) {
	// min x + y s.t. -x - y <= -4  (i.e. x + y >= 4), x,y in [0, 10].
	m := NewModel()
	x := m.AddVariable(0, 10, 1, "x")
	y := m.AddVariable(0, 10, 1, "y")
	mustCon(t, m, LE, -4, []VarID{x, y}, []float64{-1, -1})
	s, d := solveBoth(t, m)
	if s.Status != Optimal || math.Abs(s.Objective-4) > 1e-8 {
		t.Fatalf("got %v obj=%v, want optimal 4", s.Status, s.Objective)
	}
	if math.Abs(d.Objective-4) > 1e-8 {
		t.Errorf("dense obj=%v, want 4", d.Objective)
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classically degenerate instance (many constraints active at the
	// optimum). The solver must terminate and find the optimum.
	m := NewModel()
	m.SetMaximize()
	x := m.AddVariable(0, pinf(), 10, "x")
	y := m.AddVariable(0, pinf(), -57, "y")
	z := m.AddVariable(0, pinf(), -9, "z")
	w := m.AddVariable(0, pinf(), -24, "w")
	mustCon(t, m, LE, 0, []VarID{x, y, z, w}, []float64{0.5, -5.5, -2.5, 9})
	mustCon(t, m, LE, 0, []VarID{x, y, z, w}, []float64{0.5, -1.5, -0.5, 1})
	mustCon(t, m, LE, 1, []VarID{x}, []float64{1})
	s, d := solveBoth(t, m)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if math.Abs(s.Objective-d.Objective) > 1e-6 {
		t.Errorf("sparse obj %v != dense obj %v", s.Objective, d.Objective)
	}
	if math.Abs(s.Objective-1) > 1e-6 {
		t.Errorf("objective = %v, want 1", s.Objective)
	}
}

func TestDualsAndReducedCosts(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x,y >= 0 -> x=4, obj=8, dual of the
	// covering row = 2, reduced cost of y = 1.
	m := NewModel()
	x := m.AddVariable(0, pinf(), 2, "x")
	y := m.AddVariable(0, pinf(), 3, "y")
	mustCon(t, m, GE, 4, []VarID{x, y}, []float64{1, 1})
	s, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-8) > 1e-8 {
		t.Fatalf("got %v obj %v, want optimal 8", s.Status, s.Objective)
	}
	if math.Abs(s.Dual[0]-2) > 1e-8 {
		t.Errorf("dual = %v, want 2", s.Dual[0])
	}
	if math.Abs(s.ReducedObj[y]-1) > 1e-8 {
		t.Errorf("reduced cost of y = %v, want 1", s.ReducedObj[y])
	}
}

func TestValidateAcceptsSolverOutput(t *testing.T) {
	m := NewModel()
	m.SetMaximize()
	x := m.AddVariable(0, 10, 5, "x")
	y := m.AddVariable(2, 8, 4, "y")
	z := m.AddVariable(0, pinf(), 3, "z")
	mustCon(t, m, LE, 15, []VarID{x, y, z}, []float64{1, 2, 1})
	mustCon(t, m, GE, 3, []VarID{x, z}, []float64{1, 1})
	mustCon(t, m, EQ, 6, []VarID{y, z}, []float64{1, 1})
	s, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if err := m.Validate(s.X, 1e-7); err != nil {
		t.Errorf("Validate rejected optimal point: %v", err)
	}
}

func TestEmptyDomainRejected(t *testing.T) {
	m := NewModel()
	m.AddVariable(5, 2, 1, "bad")
	if _, err := m.Solve(nil); err == nil {
		t.Error("expected error for lo > hi")
	}
}

func TestAddConstraintErrors(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 1, 1, "x")
	if _, err := m.AddConstraint(LE, 1, []VarID{x}, []float64{1, 2}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := m.AddConstraint(Sense(0), 1, []VarID{x}, []float64{1}); err == nil {
		t.Error("expected invalid-sense error")
	}
	if _, err := m.AddConstraint(LE, math.NaN(), []VarID{x}, []float64{1}); err == nil {
		t.Error("expected NaN-rhs error")
	}
	if _, err := m.AddConstraint(LE, 1, []VarID{99}, []float64{1}); err == nil {
		t.Error("expected unknown-variable error")
	}
	if _, err := m.AddConstraint(LE, 1, []VarID{x}, []float64{math.Inf(1)}); err == nil {
		t.Error("expected inf-coefficient error")
	}
}

func TestDuplicateCoefficientsMerged(t *testing.T) {
	m := NewModel()
	m.SetMaximize()
	x := m.AddVariable(0, pinf(), 1, "x")
	// x + x <= 4 should behave as 2x <= 4.
	mustCon(t, m, LE, 4, []VarID{x, x}, []float64{1, 1})
	s, _ := solveBoth(t, m)
	if s.Status != Optimal || math.Abs(s.Value(x)-2) > 1e-8 {
		t.Fatalf("got %v x=%v, want optimal x=2", s.Status, s.Value(x))
	}
}

// mustCon adds a constraint or fails the test.
func mustCon(t *testing.T, m *Model, sense Sense, rhs float64, idx []VarID, val []float64) ConID {
	t.Helper()
	id, err := m.AddConstraint(sense, rhs, idx, val)
	if err != nil {
		t.Fatalf("AddConstraint: %v", err)
	}
	return id
}

// --- randomized cross-check between the two solvers ---

// randomModel builds a random LP with mixed bounds and senses.
func randomModel(rng *rand.Rand) *Model {
	m := NewModel()
	n := 1 + rng.Intn(6)
	if rng.Intn(2) == 0 {
		m.SetMaximize()
	}
	vars := make([]VarID, n)
	for j := 0; j < n; j++ {
		lo, hi := 0.0, pinf()
		switch rng.Intn(4) {
		case 0:
			hi = float64(1 + rng.Intn(10))
		case 1:
			lo, hi = -float64(rng.Intn(5)), float64(1+rng.Intn(10))
		case 2:
			lo, hi = ninf(), float64(rng.Intn(8))
		}
		obj := float64(rng.Intn(11) - 5)
		vars[j] = m.AddVariable(lo, hi, obj, "")
	}
	rows := rng.Intn(6)
	for i := 0; i < rows; i++ {
		var idx []VarID
		var val []float64
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				idx = append(idx, vars[j])
				val = append(val, float64(rng.Intn(9)-4))
			}
		}
		if len(idx) == 0 {
			idx = append(idx, vars[rng.Intn(n)])
			val = append(val, 1)
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(21) - 10)
		if _, err := m.AddConstraint(sense, rhs, idx, val); err != nil {
			panic(err)
		}
	}
	return m
}

// checkAgainstDense fails the test unless the sparse solution s of m agrees
// with the dense tableau's d: identical status and, when optimal, a feasible
// primal point and objectives equal to within tolerance.
func checkAgainstDense(t *testing.T, trial int, m *Model, s, d *Solution) {
	t.Helper()
	if s.Status != d.Status {
		t.Fatalf("trial %d: status mismatch sparse=%v dense=%v", trial, s.Status, d.Status)
	}
	if s.Status != Optimal {
		return
	}
	if err := m.Validate(s.X, 1e-6); err != nil {
		t.Fatalf("trial %d: sparse solution infeasible: %v", trial, err)
	}
	diff := math.Abs(s.Objective - d.Objective)
	scale := 1 + math.Max(math.Abs(s.Objective), math.Abs(d.Objective))
	if diff/scale > 1e-6 {
		t.Fatalf("trial %d: objective mismatch sparse=%v dense=%v", trial, s.Objective, d.Objective)
	}
}

// crossCheckRandom solves 400 random LPs drawn from seed with both the
// sparse simplex (devex pricing) and the dense tableau reference: the two
// follow different pivot trajectories but must agree on the outcome.
func crossCheckRandom(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	agreeOpt := 0
	for trial := 0; trial < 400; trial++ {
		m := randomModel(rng)
		s, d := solveBoth(t, m)
		if s.Status == IterLimit || d.Status == IterLimit {
			continue
		}
		checkAgainstDense(t, trial, m, s, d)
		if s.Status == Optimal {
			agreeOpt++
		}
	}
	if agreeOpt < 50 {
		t.Fatalf("seed %d: only %d optimal instances; generator too degenerate", seed, agreeOpt)
	}
}

func TestRandomCrossCheck(t *testing.T) { crossCheckRandom(t, 2012) }

func TestRandomReducedCostSigns(t *testing.T) {
	// At an optimum of a minimization problem, nonbasic-at-lower variables
	// must have nonnegative reduced costs and nonbasic-at-upper variables
	// nonpositive ones. We verify the observable consequence: perturbation
	// along any feasible coordinate direction cannot improve the objective.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		m := randomModel(rng)
		s, err := m.Solve(nil)
		if err != nil || s.Status != Optimal {
			continue
		}
		const tol = 1e-6
		for j, d := range s.ReducedObj {
			xj := s.X[j]
			atLower := math.Abs(xj-m.lo[j]) < 1e-7
			atUpper := math.Abs(xj-m.hi[j]) < 1e-7
			dj := d
			if m.maximize {
				dj = -dj // convert back to minimization convention
			}
			if atLower && !atUpper && dj < -tol {
				t.Fatalf("trial %d: var %d at lower with negative reduced cost %v", trial, j, dj)
			}
			if atUpper && !atLower && dj > tol {
				t.Fatalf("trial %d: var %d at upper with positive reduced cost %v", trial, j, dj)
			}
		}
	}
}

func BenchmarkSimplexMedium(b *testing.B) {
	// A transportation-style LP: 30 sources, 30 sinks.
	rng := rand.New(rand.NewSource(5))
	build := func() *Model {
		m := NewModel()
		const k = 30
		supply := make([]float64, k)
		demand := make([]float64, k)
		total := 0.0
		for i := 0; i < k; i++ {
			supply[i] = float64(1 + rng.Intn(20))
			total += supply[i]
		}
		rem := total
		for j := 0; j < k-1; j++ {
			demand[j] = rem / float64(k-j) // spread demand evenly-ish
			rem -= demand[j]
		}
		demand[k-1] = rem
		xs := make([][]VarID, k)
		for i := 0; i < k; i++ {
			xs[i] = make([]VarID, k)
			for j := 0; j < k; j++ {
				xs[i][j] = m.AddVariable(0, pinf(), float64(1+rng.Intn(9)), "")
			}
		}
		for i := 0; i < k; i++ {
			idx := make([]VarID, k)
			val := make([]float64, k)
			for j := 0; j < k; j++ {
				idx[j], val[j] = xs[i][j], 1
			}
			if _, err := m.AddConstraint(EQ, supply[i], idx, val); err != nil {
				panic(err)
			}
		}
		for j := 0; j < k; j++ {
			idx := make([]VarID, k)
			val := make([]float64, k)
			for i := 0; i < k; i++ {
				idx[i], val[i] = xs[i][j], 1
			}
			if _, err := m.AddConstraint(EQ, demand[j], idx, val); err != nil {
				panic(err)
			}
		}
		return m
	}
	m := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := m.Solve(nil)
		if err != nil {
			b.Fatal(err)
		}
		if s.Status != Optimal {
			b.Fatalf("status %v", s.Status)
		}
	}
}
