package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestWarmStartSameModelZeroIterations re-solves a model from its own
// optimal basis: the simplex must recognize optimality without pivoting.
func TestWarmStartSameModelZeroIterations(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 10, 1, "x")
	y := m.AddVariable(0, 10, 2, "y")
	mustCon(t, m, GE, 6, []VarID{x, y}, []float64{1, 1})
	mustCon(t, m, LE, 8, []VarID{x}, []float64{1})
	cold, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal || cold.Basis == nil {
		t.Fatalf("cold solve: status %v, basis %v", cold.Status, cold.Basis)
	}
	warm, err := m.Solve(&Options{InitialBasis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("warm start rejected its own optimal basis")
	}
	if warm.Status != Optimal || math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("warm: status %v obj %v, cold obj %v", warm.Status, warm.Objective, cold.Objective)
	}
	if warm.Iterations != 0 {
		t.Errorf("warm re-solve of an optimal basis took %d iterations, want 0", warm.Iterations)
	}
	if warm.Phase1Iter != 0 {
		t.Errorf("warm re-solve spent %d phase-1 iterations, want 0", warm.Phase1Iter)
	}
}

// TestWarmStartRandomSameModel property-checks warm restarts across random
// optimal models: same objective, no pivots needed.
func TestWarmStartRandomSameModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	checked := 0
	for trial := 0; trial < 250; trial++ {
		m := randomModel(rng)
		cold, err := m.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != Optimal {
			continue
		}
		warm, err := m.Solve(&Options{InitialBasis: cold.Basis})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != Optimal {
			t.Fatalf("trial %d: warm status %v", trial, warm.Status)
		}
		scale := 1 + math.Abs(cold.Objective)
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*scale {
			t.Fatalf("trial %d: warm obj %v != cold obj %v", trial, warm.Objective, cold.Objective)
		}
		if warm.WarmStarted && warm.Iterations > 2 {
			t.Errorf("trial %d: warm restart of optimal basis took %d iterations", trial, warm.Iterations)
		}
		checked++
	}
	if checked < 60 {
		t.Fatalf("only %d optimal instances checked", checked)
	}
}

// TestWarmStartShiftedRHS warms a solve whose right-hand sides moved a
// little — the consecutive-slot pattern — and checks it reaches the same
// optimum as a cold solve, in (aggregate) fewer simplex iterations.
func TestWarmStartShiftedRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	warmIters, coldIters := 0, 0
	checked := 0
	for trial := 0; trial < 200; trial++ {
		m := randomModel(rng)
		base, err := m.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if base.Status != Optimal {
			continue
		}
		// Shift every rhs by a small amount, as a new slot's charge floors
		// and release volumes would.
		m2 := NewModel()
		if m.maximize {
			m2.SetMaximize()
		}
		for j := range m.obj {
			m2.AddVariable(m.lo[j], m.hi[j], m.obj[j], "")
		}
		for _, r := range m.rows {
			idx := make([]VarID, len(r.idx))
			for p, j := range r.idx {
				idx[p] = VarID(j)
			}
			if _, err := m2.AddConstraint(r.sense, r.rhs+0.25*(rng.Float64()-0.5), idx, r.val); err != nil {
				t.Fatal(err)
			}
		}
		cold, err := m2.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := m2.Solve(&Options{InitialBasis: base.Basis})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status == IterLimit || warm.Status == IterLimit {
			continue
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v, cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status == Optimal {
			scale := 1 + math.Abs(cold.Objective)
			if math.Abs(warm.Objective-cold.Objective) > 1e-6*scale {
				t.Fatalf("trial %d: warm obj %v != cold obj %v", trial, warm.Objective, cold.Objective)
			}
			if err := m2.Validate(warm.X, 1e-6); err != nil {
				t.Fatalf("trial %d: warm solution infeasible: %v", trial, err)
			}
		}
		warmIters += warm.Iterations
		coldIters += cold.Iterations
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d instances checked", checked)
	}
	if warmIters > coldIters {
		t.Errorf("warm starts took %d total iterations vs %d cold — no reuse benefit", warmIters, coldIters)
	}
}

// TestWarmStartRejectsUnusableBases feeds deliberately broken snapshots:
// every one must be rejected (or repaired) and the solve still reach the
// cold optimum.
func TestWarmStartRejectsUnusableBases(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 5, 1, "x")
	y := m.AddVariable(0, 5, 1, "y")
	mustCon(t, m, GE, 4, []VarID{x, y}, []float64{1, 1})
	mustCon(t, m, LE, 9, []VarID{x, y}, []float64{2, 1})
	cold, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []*Basis{
		{NumVars: 1, NumRows: 2, Status: []BasisStatus{BasisBasic, BasisBasic, BasisAtLower}},
		{NumVars: 2, NumRows: 2, Status: []BasisStatus{BasisAtLower, BasisAtLower, BasisAtLower, BasisAtLower}}, // no basics
		{NumVars: 2, NumRows: 2, Status: []BasisStatus{BasisBasic, BasisBasic, BasisBasic, BasisBasic}},         // too many
		{NumVars: 2, NumRows: 2, Status: []BasisStatus{0, BasisBasic, BasisBasic, BasisAtLower}},                // invalid status
		{NumVars: 2, NumRows: 2, Status: []BasisStatus{BasisBasic, BasisBasic, BasisAtLower}},                   // short slice
	}
	for k, b := range bad {
		s, err := m.Solve(&Options{InitialBasis: b})
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		if s.WarmStarted {
			t.Errorf("case %d: unusable basis was accepted", k)
		}
		if s.Status != Optimal || math.Abs(s.Objective-cold.Objective) > 1e-9 {
			t.Errorf("case %d: status %v obj %v, want optimal %v", k, s.Status, s.Objective, cold.Objective)
		}
	}
}

// TestWarmStartSingularBasisRepairsOrFallsBack marks two linearly dependent
// structural columns basic; the factorization's singularity repair (or the
// cold fallback) must still deliver the optimum.
func TestWarmStartSingularBasisRepairsOrFallsBack(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 10, 1, "x")
	y := m.AddVariable(0, 10, 2, "y")
	mustCon(t, m, GE, 3, []VarID{x, y}, []float64{1, 1})
	mustCon(t, m, LE, 8, []VarID{x, y}, []float64{1, 1}) // same coefficient row
	cold, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	singular := &Basis{NumVars: 2, NumRows: 2, Status: []BasisStatus{
		BasisBasic, BasisBasic, // columns [1;1] and [1;1]: singular pair
		BasisAtLower, BasisAtLower,
	}}
	s, err := m.Solve(&Options{InitialBasis: singular})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("status %v obj %v, want optimal %v", s.Status, s.Objective, cold.Objective)
	}
}

// TestWarmStartAfterInfeasible checks the shedding-retry pattern: an
// infeasible solve still returns a basis, and that basis warm-starts the
// relaxed model.
func TestWarmStartAfterInfeasible(t *testing.T) {
	build := func(rhs float64) (*Model, []VarID) {
		m := NewModel()
		x := m.AddVariable(0, 2, 1, "x")
		y := m.AddVariable(0, 2, 1, "y")
		mustCon(t, m, GE, rhs, []VarID{x, y}, []float64{1, 1})
		return m, []VarID{x, y}
	}
	tight, _ := build(10) // x+y >= 10 with x,y <= 2: infeasible
	s1, err := tight.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Status != Infeasible {
		t.Fatalf("tight model status %v, want infeasible", s1.Status)
	}
	if s1.Basis == nil {
		t.Fatal("infeasible solve dropped its basis; shedding retries cannot warm-start")
	}
	relaxed, _ := build(3)
	s2, err := relaxed.Solve(&Options{InitialBasis: s1.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Status != Optimal || math.Abs(s2.Objective-3) > 1e-7 {
		t.Fatalf("relaxed warm solve: status %v obj %v, want optimal 3", s2.Status, s2.Objective)
	}
}

// TestBasisNormalize checks the basic-count repair used when a basis is
// assembled from heterogeneous sources (cross-model mapping, crash-route
// upgrades).
func TestBasisNormalize(t *testing.T) {
	// Too many basics: the surplus is demoted from the end (logicals first).
	b := &Basis{NumVars: 2, NumRows: 2, Status: []BasisStatus{
		BasisBasic, BasisBasic, BasisBasic, BasisBasic,
	}}
	b.Normalize()
	want := []BasisStatus{BasisBasic, BasisBasic, BasisAtLower, BasisAtLower}
	for p, st := range want {
		if b.Status[p] != st {
			t.Fatalf("demote: Status[%d] = %v, want %v (full: %v)", p, b.Status[p], st, b.Status)
		}
	}
	// Too few basics: logicals are promoted from the first row.
	b = &Basis{NumVars: 2, NumRows: 2, Status: []BasisStatus{
		BasisAtLower, BasisAtUpper, BasisAtLower, BasisAtLower,
	}}
	b.Normalize()
	want = []BasisStatus{BasisAtLower, BasisAtUpper, BasisBasic, BasisBasic}
	for p, st := range want {
		if b.Status[p] != st {
			t.Fatalf("promote: Status[%d] = %v, want %v (full: %v)", p, b.Status[p], st, b.Status)
		}
	}
	// Already consistent: untouched; nil passes through.
	before := append([]BasisStatus(nil), want...)
	b.Normalize()
	for p := range before {
		if b.Status[p] != before[p] {
			t.Fatalf("no-op Normalize changed Status[%d]", p)
		}
	}
	if (*Basis)(nil).Normalize() != nil {
		t.Error("nil Normalize should be nil")
	}
	// A normalized basis must pass the warm-start count check and still
	// reach the optimum.
	m := NewModel()
	x := m.AddVariable(0, 5, -1, "x")
	y := m.AddVariable(0, 5, -2, "y")
	mustCon(t, m, LE, 6, []VarID{x, y}, []float64{1, 1})
	mustCon(t, m, LE, 4, []VarID{y}, []float64{1})
	over := &Basis{NumVars: 2, NumRows: 2, Status: []BasisStatus{
		BasisBasic, BasisBasic, BasisBasic, BasisBasic,
	}}
	s, err := m.Solve(&Options{InitialBasis: over.Normalize()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-(-10)) > 1e-9 {
		t.Fatalf("normalized warm solve: status %v obj %v, want optimal -10", s.Status, s.Objective)
	}
}

// TestBasisClone checks deep-copy semantics.
func TestBasisClone(t *testing.T) {
	b := &Basis{NumVars: 1, NumRows: 1, Status: []BasisStatus{BasisBasic, BasisAtLower}}
	cp := b.Clone()
	cp.Status[0] = BasisAtUpper
	if b.Status[0] != BasisBasic {
		t.Error("Clone aliases the status slice")
	}
	if (*Basis)(nil).Clone() != nil {
		t.Error("nil Clone should be nil")
	}
}

// TestWarmStartOwnBasisFactorizesOnce re-solves models warm from their own
// optimal basis. The warm start factorizes that basis once; phase 1's exit
// check and phase 2's confirmation of the optimum then find nothing changed
// since, so neither refactorizes again, and the solve pivots nowhere. The
// network LPs have integral data, so the warm values equal the cold ones bit
// for bit, except that a zero dual may come back with the other sign: the
// warm start orders the basis differently, and the transposed solve sums
// its zeros in that order.
func TestWarmStartOwnBasisFactorizesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	equal := func(a, b float64) bool { return a == b }
	for trial := 0; trial < 20; trial++ {
		m := flowModel(rng, 8+trial)
		cold, err := m.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != Optimal {
			t.Fatalf("trial %d: cold status %v", trial, cold.Status)
		}
		warm, err := m.Solve(&Options{InitialBasis: cold.Basis})
		if err != nil {
			t.Fatal(err)
		}
		if !warm.WarmStarted || warm.Status != Optimal {
			t.Fatalf("trial %d: warm started %v, status %v", trial, warm.WarmStarted, warm.Status)
		}
		if warm.Refactorizations != 1 || warm.Iterations != 0 {
			t.Errorf("trial %d: %d factorizations and %d iterations, want 1 and 0",
				trial, warm.Refactorizations, warm.Iterations)
		}
		if !bits(warm.Objective, cold.Objective) || !slices.EqualFunc(warm.X, cold.X, bits) ||
			!slices.EqualFunc(warm.Dual, cold.Dual, equal) {
			t.Errorf("trial %d: warm objective %v, X %v, duals %v; cold %v, %v, %v",
				trial, warm.Objective, warm.X, warm.Dual, cold.Objective, cold.X, cold.Dual)
		}
	}
}
