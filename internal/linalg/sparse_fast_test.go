package linalg

import (
	"math/rand"
	"testing"
)

// randGrouped generates coordinate entries grouped by row (rows ascending,
// some rows skipped, columns shuffled with duplicates) plus the equivalent
// SparseBuilder for cross-checking.
func randGrouped(rng *rand.Rand, rows, cols int) ([]Coord, *SparseBuilder) {
	var entries []Coord
	b := NewSparseBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		if rng.Intn(4) == 0 {
			continue // skipped row
		}
		nnz := rng.Intn(cols + 2)
		for e := 0; e < nnz; e++ {
			j := rng.Intn(cols)
			v := float64(rng.Intn(9) - 4) // include zeros and negatives
			entries = append(entries, Coord{Row: i, Col: j, Val: v})
			b.Add(i, j, v)
		}
	}
	return entries, b
}

func csrEqual(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// TestNewCSRFromRowsMatchesBuilder cross-checks the direct row assembly
// against the sort-based SparseBuilder on randomized grouped inputs:
// identical RowPtr/ColIdx/Val, including duplicate merging and exact-zero
// dropping.
func TestNewCSRFromRowsMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		entries, b := randGrouped(rng, rows, cols)
		// The builder sums duplicates in coordinate-sort order; summing
		// small integers is exact, so the two paths must agree exactly.
		got := NewCSRFromRows(rows, cols, entries)
		want := b.Build()
		if !csrEqual(got, want) {
			t.Fatalf("trial %d: NewCSRFromRows disagrees with SparseBuilder\nrows=%d cols=%d entries=%v",
				trial, rows, cols, entries)
		}
	}
}

func TestNewCSRFromRowsRejectsUngrouped(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ungrouped rows")
		}
	}()
	NewCSRFromRows(3, 3, []Coord{{Row: 1, Col: 0, Val: 1}, {Row: 0, Col: 0, Val: 1}})
}

// TestTransposeMatchesDense checks the counting-sort transpose on random
// matrices, including empty rows and columns.
func TestTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		entries, _ := randGrouped(rng, rows, cols)
		m := NewCSRFromRows(rows, cols, entries)
		mt := m.Transpose()
		d, dt := m.Dense(), mt.Dense()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if d.At(i, j) != dt.At(j, i) {
					t.Fatalf("trial %d: transpose mismatch at (%d,%d)", trial, i, j)
				}
			}
		}
		// Transposed rows must come out column-sorted (CSR invariant).
		for i := 0; i < mt.Rows; i++ {
			for k := mt.RowPtr[i] + 1; k < mt.RowPtr[i+1]; k++ {
				if mt.ColIdx[k-1] >= mt.ColIdx[k] {
					t.Fatalf("trial %d: transposed row %d not sorted", trial, i)
				}
			}
		}
	}
}

func TestDiagIndices(t *testing.T) {
	b := NewSparseBuilder(4, 4)
	b.Add(0, 0, 2)
	b.Add(0, 3, 1)
	b.Add(1, 0, 5) // no diagonal in row 1
	b.Add(2, 1, 1)
	b.Add(2, 2, 7)
	b.Add(2, 3, 1)
	m := b.Build()
	di := m.DiagIndices()
	want := []float64{2, 0, 7, 0}
	for i, k := range di {
		if k < 0 {
			if want[i] != 0 {
				t.Fatalf("row %d: missing diagonal, want %v", i, want[i])
			}
			continue
		}
		if m.ColIdx[k] != i || m.Val[k] != want[i] {
			t.Fatalf("row %d: diag index %d -> (%d, %v), want (%d, %v)", i, k, m.ColIdx[k], m.Val[k], i, want[i])
		}
	}
	// Diag must agree with the index-based view.
	d := m.Diag()
	for i := range d {
		if d[i] != want[i] {
			t.Fatalf("Diag()[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}
