package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFromTripletsBasic(t *testing.T) {
	m, err := NewFromTriplets(nil, 3, 2, []Triplet{
		{Row: 0, Col: 0, Val: 1},
		{Row: 2, Col: 0, Val: 3},
		{Row: 1, Col: 1, Val: -2},
	})
	if err != nil {
		t.Fatalf("NewFromTriplets: %v", err)
	}
	if got := m.NNZ(); got != 3 {
		t.Fatalf("NNZ = %d, want 3", got)
	}
	if got := m.At(2, 0); got != 3 {
		t.Errorf("At(2,0) = %v, want 3", got)
	}
	if got := m.At(0, 1); got != 0 {
		t.Errorf("At(0,1) = %v, want 0", got)
	}
}

func TestNewFromTripletsDuplicatesSummed(t *testing.T) {
	m, err := NewFromTriplets(nil, 2, 2, []Triplet{
		{Row: 0, Col: 1, Val: 1.5},
		{Row: 0, Col: 1, Val: 2.5},
		{Row: 1, Col: 0, Val: 1},
	})
	if err != nil {
		t.Fatalf("NewFromTriplets: %v", err)
	}
	if got := m.At(0, 1); got != 4 {
		t.Errorf("duplicate sum At(0,1) = %v, want 4", got)
	}
	if got := m.NNZ(); got != 2 {
		t.Errorf("NNZ = %d, want 2 after dedup", got)
	}
}

func TestNewFromTripletsRejectsOutOfRange(t *testing.T) {
	cases := []Triplet{
		{Row: -1, Col: 0, Val: 1},
		{Row: 0, Col: 5, Val: 1},
		{Row: 3, Col: 0, Val: 1},
	}
	for _, c := range cases {
		if _, err := NewFromTriplets(nil, 3, 3, []Triplet{c}); err == nil {
			t.Errorf("expected error for triplet %+v", c)
		}
	}
}

func TestColumnSortedAscending(t *testing.T) {
	m, err := NewFromTriplets(nil, 5, 1, []Triplet{
		{Row: 4, Col: 0, Val: 4},
		{Row: 0, Col: 0, Val: 0.5},
		{Row: 2, Col: 0, Val: 2},
	})
	if err != nil {
		t.Fatalf("NewFromTriplets: %v", err)
	}
	prev := -1
	m.Column(0, func(row int, _ float64) {
		if row <= prev {
			t.Errorf("rows not strictly ascending: %d after %d", row, prev)
		}
		prev = row
	})
}

func randomMatrix(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	var trip []Triplet
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				trip = append(trip, Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	m, err := NewFromTriplets(nil, rows, cols, trip)
	if err != nil {
		panic(err)
	}
	return m
}

// mulVec, mulTVec and dense are the reference products the LU tests check
// residuals with: y = A*x (len(y) == Rows), y = Aᵀ*x (len(y) == Cols), and
// the dense row-major expansion of A. The tests below pin them against each
// other.
func mulVec(m *Matrix, x, y []float64) {
	clear(y)
	for j := 0; j < m.Cols; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			y[m.RowIdx[p]] += m.Val[p] * x[j]
		}
	}
}

func mulTVec(m *Matrix, x, y []float64) {
	for j := 0; j < m.Cols; j++ {
		y[j] = 0
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			y[j] += m.Val[p] * x[m.RowIdx[p]]
		}
	}
}

func dense(m *Matrix) [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
	}
	for j := 0; j < m.Cols; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			d[m.RowIdx[p]][j] = m.Val[p]
		}
	}
	return d
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := randomMatrix(rng, rows, cols, 0.4)
		d := dense(m)
		x := make([]float64, cols)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := make([]float64, rows)
		mulVec(m, x, y)
		for i := 0; i < rows; i++ {
			want := 0.0
			for j := 0; j < cols; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-12 {
				t.Fatalf("trial %d: MulVec[%d] = %v, want %v", trial, i, y[i], want)
			}
		}
	}
}

func TestMulTVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := randomMatrix(rng, rows, cols, 0.4)
		d := dense(m)
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, cols)
		mulTVec(m, x, y)
		for j := 0; j < cols; j++ {
			want := 0.0
			for i := 0; i < rows; i++ {
				want += d[i][j] * x[i]
			}
			if math.Abs(y[j]-want) > 1e-12 {
				t.Fatalf("trial %d: MulTVec[%d] = %v, want %v", trial, j, y[j], want)
			}
		}
	}
}

// TestMulVecLinearity property: A(ax + by) = a*Ax + b*Ay.
func TestMulVecLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomMatrix(rng, 6, 5, 0.5)
	f := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 8)
		b = math.Mod(b, 8)
		r := rand.New(rand.NewSource(seed))
		x := make([]float64, 5)
		y := make([]float64, 5)
		comb := make([]float64, 5)
		for j := range x {
			x[j], y[j] = r.NormFloat64(), r.NormFloat64()
			comb[j] = a*x[j] + b*y[j]
		}
		ax := make([]float64, 6)
		ay := make([]float64, 6)
		ac := make([]float64, 6)
		mulVec(m, x, ax)
		mulVec(m, y, ay)
		mulVec(m, comb, ac)
		for i := range ac {
			if math.Abs(ac[i]-(a*ax[i]+b*ay[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
