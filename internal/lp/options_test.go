package lp

import (
	"math"
	"testing"
)

func TestIterLimitReported(t *testing.T) {
	m := NewModel()
	m.SetMaximize()
	x := m.AddVariable(0, pinf(), 3, "x")
	y := m.AddVariable(0, pinf(), 2, "y")
	mustCon(t, m, LE, 4, []VarID{x, y}, []float64{1, 1})
	mustCon(t, m, LE, 2, []VarID{x}, []float64{1})
	s, err := m.Solve(&Options{maxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != IterLimit {
		t.Errorf("status = %v, want iteration-limit", s.Status)
	}
}

func TestPerturbDisabledStillOptimal(t *testing.T) {
	m := NewModel()
	m.SetMaximize()
	x := m.AddVariable(0, 10, 5, "x")
	y := m.AddVariable(2, 8, 4, "y")
	mustCon(t, m, LE, 15, []VarID{x, y}, []float64{1, 2})
	s, err := m.Solve(&Options{perturb: -1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	d, err := m.SolveDense()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Objective-d.Objective) > 1e-7 {
		t.Errorf("objective %v != dense %v", s.Objective, d.Objective)
	}
}

func TestPerturbationDoesNotMoveObjective(t *testing.T) {
	// The reported objective must use the unperturbed costs: a model whose
	// optimum is exactly representable must come back bit-clean (modulo
	// tiny arithmetic noise far below the perturbation scale).
	m := NewModel()
	x := m.AddVariable(0, 4, 1, "x")
	y := m.AddVariable(0, 4, 1, "y")
	mustCon(t, m, GE, 6, []VarID{x, y}, []float64{1, 1})
	s, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-6) > 1e-9 {
		t.Errorf("objective = %v, want exactly 6", s.Objective)
	}
}

func TestSolutionSnapsToBounds(t *testing.T) {
	// Variables that should rest exactly at a bound must be reported
	// exactly at it despite the EXPAND anti-degeneracy overshoot.
	m := NewModel()
	x := m.AddVariable(0, 5, 1, "x")
	y := m.AddVariable(0, 5, 2, "y")
	mustCon(t, m, GE, 5, []VarID{x, y}, []float64{1, 1})
	s, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if s.Value(x) != 5 || s.Value(y) != 0 {
		t.Errorf("x=%v y=%v, want exactly 5, 0", s.Value(x), s.Value(y))
	}
}

func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit",
		Status(99): "Status(99)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(st), got, want)
		}
	}
	senses := map[Sense]string{LE: "<=", GE: ">=", EQ: "=", Sense(9): "Sense(9)"}
	for sn, want := range senses {
		if got := sn.String(); got != want {
			t.Errorf("Sense %d = %q, want %q", int(sn), got, want)
		}
	}
}

func TestVarName(t *testing.T) {
	m := NewModel()
	a := m.AddVariable(0, 1, 0, "alpha")
	b := m.AddVariable(0, 1, 0, "")
	if got := m.VarName(a); got != "alpha" {
		t.Errorf("VarName = %q", got)
	}
	if got := m.VarName(b); got != "x1" {
		t.Errorf("VarName = %q, want x1", got)
	}
}

func TestValidateErrors(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 1, 0, "x")
	mustCon(t, m, EQ, 1, []VarID{x}, []float64{1})
	if err := m.Validate([]float64{0.5, 1}, 1e-9); err == nil {
		t.Error("expected length error")
	}
	if err := m.Validate([]float64{2}, 1e-9); err == nil {
		t.Error("expected bound violation")
	}
	if err := m.Validate([]float64{0.5}, 1e-9); err == nil {
		t.Error("expected EQ violation")
	}
	if err := m.Validate([]float64{1}, 1e-9); err != nil {
		t.Errorf("valid point rejected: %v", err)
	}
}

func TestObjectiveValue(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 10, 3, "x")
	y := m.AddVariable(0, 10, -2, "y")
	if got := m.ObjectiveValue([]float64{2, 5}); got != -4 {
		t.Errorf("ObjectiveValue = %v, want -4", got)
	}
	_ = x
	_ = y
}

// TestHighlyDegenerateAssignment is a regression for the phase-2 stall: an
// assignment-polytope LP (maximally degenerate) with many symmetric optima
// must terminate well inside the iteration budget.
func TestHighlyDegenerateAssignment(t *testing.T) {
	const k = 12
	m := NewModel()
	vars := make([][]VarID, k)
	for i := 0; i < k; i++ {
		vars[i] = make([]VarID, k)
		for j := 0; j < k; j++ {
			cost := 1.0
			if i == j {
				cost = 0.5
			}
			vars[i][j] = m.AddVariable(0, 1, cost, "")
		}
	}
	for i := 0; i < k; i++ {
		idx := make([]VarID, k)
		val := make([]float64, k)
		for j := 0; j < k; j++ {
			idx[j], val[j] = vars[i][j], 1
		}
		mustCon(t, m, EQ, 1, idx, val)
	}
	for j := 0; j < k; j++ {
		idx := make([]VarID, k)
		val := make([]float64, k)
		for i := 0; i < k; i++ {
			idx[i], val[i] = vars[i][j], 1
		}
		mustCon(t, m, EQ, 1, idx, val)
	}
	s, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-0.5*k) > 1e-6 {
		t.Errorf("objective = %v, want %v", s.Objective, 0.5*k)
	}
	if s.Iterations > 5000 {
		t.Errorf("took %d iterations on a %dx%d assignment LP", s.Iterations, k, k)
	}
}

// TestPerturbationDoesNotFakeUnbounded is a regression test: a variable
// with zero objective and an infinite bound direction used to pick up a
// tiny positive perturbed cost, making the perturbed problem look
// unbounded even though the honest problem is bounded. The solver must
// strip the perturbation and conclude Optimal.
func TestPerturbationDoesNotFakeUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(-4, 4, 4, "x")
	m.AddVariable(ninf(), 4, 0, "ray") // zero cost, unbounded below
	y := m.AddVariable(-2, 5, -1, "y")
	z := m.AddVariable(-2, 10, -4, "z")
	mustCon(t, m, LE, 1, []VarID{x}, []float64{0}) // vacuous
	s, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal (perturbation faked unboundedness)", s.Status)
	}
	if math.Abs(s.Objective-(-61)) > 1e-7 {
		t.Errorf("objective = %v, want -61", s.Objective)
	}
	_ = y
	_ = z
}
