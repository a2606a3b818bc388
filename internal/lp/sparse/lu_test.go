package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// columnsOf adapts a Matrix to the column provider used by Factorize.
func columnsOf(m *Matrix) func(int) ([]int, []float64) {
	return func(k int) ([]int, []float64) { return m.ColumnSlices(k) }
}

// randomNonsingular builds a random sparse matrix that is nonsingular by
// construction: a dense-ish random band plus a strong diagonal.
func randomNonsingular(rng *rand.Rand, n int, density float64) *Matrix {
	var trip []Triplet
	for i := 0; i < n; i++ {
		trip = append(trip, Triplet{Row: i, Col: i, Val: 4 + rng.Float64()})
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				trip = append(trip, Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	m, err := NewFromTriplets(nil, n, n, trip)
	if err != nil {
		panic(err)
	}
	return m
}

func TestLUSolveIdentity(t *testing.T) {
	n := 4
	var trip []Triplet
	for i := 0; i < n; i++ {
		trip = append(trip, Triplet{Row: i, Col: i, Val: 1})
	}
	m, err := NewFromTriplets(nil, n, n, trip)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factorize(nil, n, columnsOf(m), 0)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	b := []float64{1, 2, 3, 4}
	x := make([]float64, n)
	scratch := make([]float64, n)
	f.Solve(b, x, scratch)
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], b[i])
		}
	}
}

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(30)
		m := randomNonsingular(rng, n, 0.25)
		f, err := Factorize(nil, n, columnsOf(m), 1e-12)
		if err != nil {
			t.Fatalf("trial %d: Factorize: %v", trial, err)
		}
		if len(f.Repairs()) != 0 {
			t.Fatalf("trial %d: unexpected repairs %v", trial, f.Repairs())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		scratch := make([]float64, n)
		f.Solve(b, x, scratch)
		// Check A*x == b.
		ax := make([]float64, n)
		mulVec(m, x, ax)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				t.Fatalf("trial %d n=%d: residual at row %d: %v vs %v", trial, n, i, ax[i], b[i])
			}
		}
	}
}

func TestLUSolveTransposeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(30)
		m := randomNonsingular(rng, n, 0.25)
		f, err := Factorize(nil, n, columnsOf(m), 1e-12)
		if err != nil {
			t.Fatalf("trial %d: Factorize: %v", trial, err)
		}
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		y := make([]float64, n)
		scratch := make([]float64, n)
		f.SolveT(c, y, scratch)
		// Check Aᵀ*y == c.
		aty := make([]float64, n)
		mulTVec(m, y, aty)
		for i := range c {
			if math.Abs(aty[i]-c[i]) > 1e-8*(1+math.Abs(c[i])) {
				t.Fatalf("trial %d n=%d: transpose residual at %d: %v vs %v", trial, n, i, aty[i], c[i])
			}
		}
	}
}

func TestLUPermutedIdentity(t *testing.T) {
	// A permutation matrix exercises pivoting without any arithmetic.
	n := 6
	perm := []int{3, 0, 5, 1, 4, 2}
	var trip []Triplet
	for j, i := range perm {
		trip = append(trip, Triplet{Row: i, Col: j, Val: 1})
	}
	m, err := NewFromTriplets(nil, n, n, trip)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factorize(nil, n, columnsOf(m), 0)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	b := []float64{1, 2, 3, 4, 5, 6}
	x := make([]float64, n)
	scratch := make([]float64, n)
	f.Solve(b, x, scratch)
	ax := make([]float64, n)
	mulVec(m, x, ax)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-12 {
			t.Errorf("A*x[%d] = %v, want %v", i, ax[i], b[i])
		}
	}
}

func TestLUSingularRepaired(t *testing.T) {
	// Two identical columns: the second must be repaired.
	n := 3
	trip := []Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 2},
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 1, Val: 2},
		{Row: 2, Col: 2, Val: 5},
	}
	m, err := NewFromTriplets(nil, n, n, trip)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factorize(nil, n, columnsOf(m), 1e-10)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if len(f.Repairs()) != 1 {
		t.Fatalf("Repairs = %v, want exactly one", f.Repairs())
	}
	// The repaired factorization must solve the repaired matrix exactly:
	// column Pos of A replaced by the unit column of Row.
	rep := f.Repairs()[0]
	d := dense(m)
	for i := 0; i < n; i++ {
		d[i][rep.Pos] = 0
	}
	d[rep.Row][rep.Pos] = 1
	b := []float64{1, -2, 3}
	x := make([]float64, n)
	scratch := make([]float64, n)
	f.Solve(b, x, scratch)
	for i := 0; i < n; i++ {
		got := 0.0
		for j := 0; j < n; j++ {
			got += d[i][j] * x[j]
		}
		if math.Abs(got-b[i]) > 1e-9 {
			t.Errorf("repaired A*x[%d] = %v, want %v", i, got, b[i])
		}
	}
}

func TestLUZeroDimension(t *testing.T) {
	f, err := Factorize(nil, 0, func(int) ([]int, []float64) { return nil, nil }, 0)
	if err != nil {
		t.Fatalf("Factorize(0): %v", err)
	}
	if f.N() != 0 {
		t.Errorf("N = %d, want 0", f.N())
	}
	f.Solve(nil, nil, nil)
	f.SolveT(nil, nil, nil)
}

func TestLUAllZeroMatrixFullyRepaired(t *testing.T) {
	n := 4
	f, err := Factorize(nil, n, func(int) ([]int, []float64) { return nil, nil }, 1e-10)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if got := len(f.Repairs()); got != n {
		t.Fatalf("Repairs = %d, want %d", got, n)
	}
	// Repaired matrix is a permutation of the identity; solving must work.
	b := []float64{1, 2, 3, 4}
	x := make([]float64, n)
	scratch := make([]float64, n)
	f.Solve(b, x, scratch)
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if math.Abs(sum-10) > 1e-12 {
		t.Errorf("solution sum = %v, want 10", sum)
	}
}

// TestFactorizeWarmAllocs pins the storage reuse of Factorize: once an LU
// has held a factorization of the same size, refactorizing into it — by
// column callback or through FactorizeBasis — allocates nothing.
func TestFactorizeWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 120
	m := randomNonsingular(rng, n, 0.03)
	cols := columnsOf(m)
	basis := rng.Perm(n)
	lu, err := Factorize(nil, n, cols, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := Factorize(lu, n, cols, 1e-12); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Factorize into a warm LU allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := FactorizeBasis(lu, m, basis, 1e-12); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("FactorizeBasis into a warm LU allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkLUFactorize200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randomNonsingular(rng, 200, 0.02)
	cols := columnsOf(m)
	var lu *LU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if lu, err = Factorize(lu, 200, cols, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUSolve200(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 200
	m := randomNonsingular(rng, n, 0.02)
	f, err := Factorize(nil, n, columnsOf(m), 1e-12)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	scratch := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Solve(rhs, x, scratch)
	}
}

// TestFactorizeBasis checks the basis-selection entry point: factorizing
// columns [2, 0] of a 2x3 matrix must reproduce B = [a_2, a_0] and solve
// against it, and malformed bases must be rejected.
func TestFactorizeBasis(t *testing.T) {
	a, err := NewFromTriplets(nil, 2, 3, []Triplet{
		{0, 0, 2}, {1, 0, 1},
		{0, 1, 1},
		{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	lu, err := FactorizeBasis(nil, a, []int{2, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// B = [[0, 2], [3, 1]]; solve B x = [2, 4] -> x = [10/9... ] check via residual.
	x := make([]float64, 2)
	scratch := make([]float64, 2)
	lu.Solve([]float64{2, 4}, x, scratch)
	if r0 := 0*x[0] + 2*x[1] - 2; r0 > 1e-12 || r0 < -1e-12 {
		t.Errorf("residual row 0 = %v", r0)
	}
	if r1 := 3*x[0] + 1*x[1] - 4; r1 > 1e-12 || r1 < -1e-12 {
		t.Errorf("residual row 1 = %v", r1)
	}
	if _, err := FactorizeBasis(nil, a, []int{0}, 0); err == nil {
		t.Error("expected error for basis/row-count mismatch")
	}
	if _, err := FactorizeBasis(nil, a, []int{0, 5}, 0); err == nil {
		t.Error("expected error for out-of-range basis column")
	}
}
