package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzSparseTriangularSolve cross-checks the hyper-sparse Gilbert-Peierls
// solves against the dense substitution reference on randomly generated
// factorizations and sparse right-hand sides. The fuzzer drives the matrix
// shape, density, RHS support, and the pattern limit (so both the sparse
// path and every dense-fallback branch are exercised). The factorization
// under test runs on recycled storage: a different matrix was factorized
// into the same LU first — larger or smaller, singular so repairs fire, or
// with an out-of-range row so the call errors. It checks four invariants:
//
//  1. the recycled factorization equals a fresh one bit for bit,
//  2. the sparse result matches the dense Solve/SolveT result elementwise,
//  3. on the sparse path, every position outside the returned pattern is
//     untouched (still zero), and
//  4. the workspace is restored to its resting state (marks clear, numeric
//     buffers zero) so the next solve starts clean.
func FuzzSparseTriangularSolve(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(30), uint8(2), uint8(100), false)
	f.Add(int64(2), uint8(30), uint8(10), uint8(1), uint8(4), true)
	f.Add(int64(3), uint8(1), uint8(0), uint8(1), uint8(1), false)
	f.Add(int64(4), uint8(50), uint8(60), uint8(12), uint8(0), true)
	f.Add(int64(5), uint8(17), uint8(5), uint8(17), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densRaw, nnzRaw, limitRaw uint8, transpose bool) {
		n := 1 + int(nRaw)%60
		density := float64(densRaw%100) / 100
		nnz := 1 + int(nnzRaw)%n
		limit := int(limitRaw) % (2 * n)

		rng := rand.New(rand.NewSource(seed))
		m := randomNonsingular(rng, n, density)
		fresh, err := Factorize(nil, n, columnsOf(m), 1e-12)
		if err != nil {
			t.Skip("factorization failed; not the property under test")
		}
		lu := priorLU(t, rand.New(rand.NewSource(^seed)), n, density)
		if lu, err = Factorize(lu, n, columnsOf(m), 1e-12); err != nil {
			t.Fatalf("recycled factorization failed where a fresh one succeeded: %v", err)
		}
		sameLU(t, lu, fresh)
		if len(lu.Repairs()) != 0 {
			t.Skip("repaired basis; dense/sparse comparison undefined")
		}

		// Sparse RHS with deliberate duplicates now and then.
		idx := make([]int, 0, nnz)
		val := make([]float64, 0, nnz)
		for k := 0; k < nnz; k++ {
			idx = append(idx, rng.Intn(n))
			val = append(val, rng.NormFloat64())
		}

		// Dense reference.
		bDense := make([]float64, n)
		for p, i := range idx {
			bDense[i] += val[p]
		}
		want := make([]float64, n)
		scratch := make([]float64, n)
		if transpose {
			lu.SolveT(bDense, want, scratch)
		} else {
			lu.Solve(bDense, want, scratch)
		}

		// Sparse path under test.
		var ws PatternWorkspace
		dst := make([]float64, n)
		var pat []int
		var ok bool
		if transpose {
			pat, ok = lu.SolveTSparseRHS(idx, val, dst, &ws, limit)
		} else {
			pat, ok = lu.SolveSparseRHS(idx, val, dst, &ws, limit)
		}

		inPat := make([]bool, n)
		if ok {
			for _, i := range pat {
				if i < 0 || i >= n {
					t.Fatalf("pattern position %d out of range [0,%d)", i, n)
				}
				inPat[i] = true
			}
		}
		scale := 0.0
		for _, v := range want {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		tol := 1e-8 * (1 + scale)
		for i := 0; i < n; i++ {
			if math.Abs(dst[i]-want[i]) > tol {
				t.Fatalf("n=%d nnz=%d limit=%d transpose=%v ok=%v: dst[%d] = %g, dense reference %g",
					n, nnz, limit, transpose, ok, i, dst[i], want[i])
			}
			if ok && !inPat[i] && dst[i] != 0 {
				t.Fatalf("position %d outside the returned pattern was written (%g)", i, dst[i])
			}
		}

		// Workspace resting-state invariant.
		for i, v := range ws.x {
			if v != 0 {
				t.Fatalf("workspace x[%d] = %g after solve, want 0", i, v)
			}
		}
		for i, v := range ws.b {
			if v != 0 {
				t.Fatalf("workspace b[%d] = %g after solve, want 0", i, v)
			}
		}
		for i, mk := range ws.mark {
			if mk {
				t.Fatalf("workspace mark[%d] still set after solve", i)
			}
		}

		// The workspace must be reusable: a second solve with the same inputs
		// must reproduce the result exactly.
		dst2 := make([]float64, n)
		if transpose {
			_, _ = lu.SolveTSparseRHS(idx, val, dst2, &ws, limit)
		} else {
			_, _ = lu.SolveSparseRHS(idx, val, dst2, &ws, limit)
		}
		for i := range dst {
			if dst[i] != dst2[i] {
				t.Fatalf("solve not reproducible with reused workspace: dst[%d] %g vs %g", i, dst[i], dst2[i])
			}
		}
	})
}

// priorLU returns nil or an LU that already holds (or failed) a
// factorization of some other matrix of dimension up to n+20: nonsingular,
// singular with two identical columns so a repair fires, or carrying an
// out-of-range row index so Factorize errors. A failed call must leave the
// LU empty with clean scratch.
func priorLU(t *testing.T, rng *rand.Rand, n int, density float64) *LU {
	t.Helper()
	dim := 2 + rng.Intn(n+20)
	cols := columnsOf(randomNonsingular(rng, dim, density))
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		lu, err := Factorize(nil, dim, cols, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		return lu
	case 2:
		lu, err := Factorize(nil, dim, func(k int) ([]int, []float64) { return cols(k &^ 1) }, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if len(lu.Repairs()) == 0 {
			t.Fatal("duplicated columns factorized without a repair")
		}
		return lu
	}
	bad := rng.Intn(dim)
	lu := new(LU)
	_, err := Factorize(lu, dim, func(k int) ([]int, []float64) {
		rows, vals := cols(k)
		if k == bad {
			rows = append(append([]int(nil), rows...), dim)
			vals = append(append([]float64(nil), vals...), 1)
		}
		return rows, vals
	}, 1e-12)
	if err == nil {
		t.Fatal("out-of-range row index accepted")
	}
	if lu.N() != 0 || len(lu.Repairs()) != 0 {
		t.Fatalf("failed factorization left N %d, %d repairs", lu.N(), len(lu.Repairs()))
	}
	for i, v := range lu.x {
		if v != 0 || lu.mark[i] {
			t.Fatalf("failed factorization left scratch at %d: x %g, mark %v", i, v, lu.mark[i])
		}
	}
	return lu
}

// sameLU fails unless got and want hold bit-identical factorizations.
func sameLU(t *testing.T, got, want *LU) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("dimension %d, want %d", got.n, want.n)
	}
	ints := []struct {
		name      string
		got, want []int
	}{
		{"lColPtr", got.lColPtr, want.lColPtr}, {"lRow", got.lRow, want.lRow},
		{"uColPtr", got.uColPtr, want.uColPtr}, {"uRow", got.uRow, want.uRow},
		{"lRowPtr", got.lRowPtr, want.lRowPtr}, {"lRowCol", got.lRowCol, want.lRowCol},
		{"uRowPtr", got.uRowPtr, want.uRowPtr}, {"uRowCol", got.uRowCol, want.uRowCol},
		{"pinv", got.pinv, want.pinv}, {"perm", got.perm, want.perm},
	}
	for _, c := range ints {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("%s = %v, fresh factorization %v", c.name, c.got, c.want)
		}
	}
	floats := []struct {
		name      string
		got, want []float64
	}{
		{"lVal", got.lVal, want.lVal}, {"uVal", got.uVal, want.uVal}, {"uDiag", got.uDiag, want.uDiag},
	}
	for _, c := range floats {
		if !slices.EqualFunc(c.got, c.want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s = %v, fresh factorization %v", c.name, c.got, c.want)
		}
	}
	if !slices.Equal(got.Repairs(), want.Repairs()) {
		t.Fatalf("repairs %v, fresh factorization %v", got.Repairs(), want.Repairs())
	}
}
