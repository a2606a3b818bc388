// Package sparse implements the compressed sparse-column matrices, sparse
// LU factorization, and triangular solves that back the LP solver. It is a
// self-contained, stdlib-only kernel in the spirit of CSparse: column-major
// storage, Gilbert-Peierls left-looking LU with partial pivoting, and
// dense-workspace triangular solves tuned for the basis matrices that arise
// from network-flow-like linear programs.
package sparse

import (
	"fmt"
	"sort"
)

// Matrix is a sparse matrix in compressed sparse-column (CSC) form. Column
// j occupies positions ColPtr[j]..ColPtr[j+1] of RowIdx and Val. Row
// indices within a column are sorted ascending with no duplicates. A Matrix
// is read-only once assembled; NewFromTriplets may reassemble it in place.
type Matrix struct {
	Rows   int
	Cols   int
	ColPtr []int     // length Cols+1
	RowIdx []int     // length nnz
	Val    []float64 // length nnz

	next []int // per-column insertion cursor, retained for reassembly
}

// Triplet is a single (row, col, value) entry used when assembling a Matrix.
type Triplet struct {
	Row int
	Col int
	Val float64
}

// NewFromTriplets assembles a rows x cols CSC matrix from coordinate-form
// entries into m, reusing its storage (nil allocates a new Matrix).
// Duplicate entries are summed; explicit zeros are kept (callers that care
// can prune). It returns an error, leaving m untouched, when an index is
// out of range.
func NewFromTriplets(m *Matrix, rows, cols int, entries []Triplet) (*Matrix, error) {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("sparse: triplet (%d,%d) out of range for %dx%d matrix",
				e.Row, e.Col, rows, cols)
		}
	}
	if m == nil {
		m = new(Matrix)
	}
	m.Rows, m.Cols = rows, cols
	// Count column occupancies, then prefix-sum them into column starts.
	m.ColPtr = resize(m.ColPtr, cols+1)
	clear(m.ColPtr)
	for _, e := range entries {
		m.ColPtr[e.Col+1]++
	}
	for j := 0; j < cols; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	m.RowIdx = resize(m.RowIdx, len(entries))
	m.Val = resize(m.Val, len(entries))
	m.next = resize(m.next, cols)
	copy(m.next, m.ColPtr[:cols])
	for _, e := range entries {
		p := m.next[e.Col]
		m.RowIdx[p] = e.Row
		m.Val[p] = e.Val
		m.next[e.Col]++
	}
	m.sortAndDedup()
	return m, nil
}

// sortAndDedup sorts row indices within each column and merges duplicates.
// Columns that are already strictly increasing — the common case when the
// triplets came from a row-major sweep of deduplicated rows, since the
// counting scatter in NewFromTriplets is stable — need neither sorting nor
// merging, so a fully sorted matrix returns after one O(nnz) scan without
// allocating.
func (m *Matrix) sortAndDedup() {
	sorted := true
scan:
	for j := 0; j < m.Cols; j++ {
		for p := m.ColPtr[j] + 1; p < m.ColPtr[j+1]; p++ {
			if m.RowIdx[p-1] >= m.RowIdx[p] {
				sorted = false
				break scan
			}
		}
	}
	if sorted {
		return
	}
	// Compaction only moves entries toward the front, so the column starts,
	// indices and values are all rewritten in place.
	outIdx := m.RowIdx[:0]
	outVal := m.Val[:0]
	type ent struct {
		row int
		val float64
	}
	var scratch []ent
	writePos := 0
	for j := 0; j < m.Cols; j++ {
		start, end := m.ColPtr[j], m.ColPtr[j+1]
		scratch = scratch[:0]
		for p := start; p < end; p++ {
			scratch = append(scratch, ent{m.RowIdx[p], m.Val[p]})
		}
		sort.Slice(scratch, func(a, b int) bool { return scratch[a].row < scratch[b].row })
		m.ColPtr[j] = writePos
		for i := 0; i < len(scratch); {
			row := scratch[i].row
			sum := 0.0
			for i < len(scratch) && scratch[i].row == row {
				sum += scratch[i].val
				i++
			}
			outIdx = append(outIdx[:writePos], row)
			outVal = append(outVal[:writePos], sum)
			writePos++
		}
	}
	m.ColPtr[m.Cols] = writePos
	m.RowIdx = outIdx[:writePos]
	m.Val = outVal[:writePos]
}

// NNZ reports the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.RowIdx) }

// Column invokes fn for every stored entry (row, value) of column j.
func (m *Matrix) Column(j int, fn func(row int, val float64)) {
	for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
		fn(m.RowIdx[p], m.Val[p])
	}
}

// ColumnSlices returns the row-index and value slices of column j. The
// returned slices alias the matrix and must not be mutated.
func (m *Matrix) ColumnSlices(j int) ([]int, []float64) {
	return m.RowIdx[m.ColPtr[j]:m.ColPtr[j+1]], m.Val[m.ColPtr[j]:m.ColPtr[j+1]]
}

// At returns the value at (i, j), 0 when the entry is not stored. It is
// O(log nnz(col j)) and intended for tests and small matrices.
func (m *Matrix) At(i, j int) float64 {
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	idx := sort.SearchInts(m.RowIdx[lo:hi], i)
	if lo+idx < hi && m.RowIdx[lo+idx] == i {
		return m.Val[lo+idx]
	}
	return 0
}

// CSR is a row-major (compressed sparse-row) mirror of a Matrix. Row i
// occupies positions RowPtr[i]..RowPtr[i+1] of ColIdx and Val, with column
// indices sorted ascending. The revised simplex keeps a CSR mirror of the
// constraint matrix alongside the CSC original so the pivot row of B⁻¹A can
// be assembled by walking only the rows touched by a sparse BTRAN result,
// instead of scanning every column.
type CSR struct {
	Rows   int
	Cols   int
	RowPtr []int     // length Rows+1
	ColIdx []int     // length nnz
	Val    []float64 // length nnz

	next []int // per-row insertion cursor, retained for reassembly
}

// ToCSR builds the row-major mirror of the matrix into c, reusing its
// storage (nil allocates a new CSR). The result shares no storage with the
// receiver.
func (m *Matrix) ToCSR(c *CSR) *CSR {
	if c == nil {
		c = new(CSR)
	}
	c.Rows, c.Cols = m.Rows, m.Cols
	c.RowPtr = resize(c.RowPtr, m.Rows+1)
	clear(c.RowPtr)
	c.ColIdx = resize(c.ColIdx, len(m.RowIdx))
	c.Val = resize(c.Val, len(m.Val))
	for _, i := range m.RowIdx {
		c.RowPtr[i+1]++
	}
	for i := 0; i < m.Rows; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	c.next = resize(c.next, m.Rows)
	copy(c.next, c.RowPtr[:m.Rows])
	// Scanning columns in ascending order leaves each row's column indices
	// sorted ascending.
	for j := 0; j < m.Cols; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			i := m.RowIdx[p]
			c.ColIdx[c.next[i]] = j
			c.Val[c.next[i]] = m.Val[p]
			c.next[i]++
		}
	}
	return c
}

// RowSlices returns the column-index and value slices of row i. The
// returned slices alias the CSR and must not be mutated.
func (c *CSR) RowSlices(i int) ([]int, []float64) {
	return c.ColIdx[c.RowPtr[i]:c.RowPtr[i+1]], c.Val[c.RowPtr[i]:c.RowPtr[i+1]]
}
