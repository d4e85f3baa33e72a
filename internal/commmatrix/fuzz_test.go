package commmatrix

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadMatrixCSV feeds arbitrary bytes to ReadCSV. It must never panic,
// and any matrix it accepts must be a communication matrix: finite,
// non-negative, symmetric and zero on the diagonal, and WriteCSV followed by
// ReadCSV must reproduce it cell for cell. The seed corpus is
// testdata/fuzz/FuzzReadMatrixCSV; it includes the short-row input that
// once panicked.
func FuzzReadMatrixCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := m.N()
		for i := 0; i < n; i++ {
			if m.At(i, i) != 0 {
				t.Fatalf("accepted nonzero diagonal at %d: %g", i, m.At(i, i))
			}
			for j := 0; j < n; j++ {
				v := m.At(i, j)
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("accepted cell (%d,%d) = %g", i, j, v)
				}
				if v != m.At(j, i) {
					t.Fatalf("accepted asymmetric cells (%d,%d) = %g, (%d,%d) = %g", i, j, v, j, i, m.At(j, i))
				}
			}
		}
		var buf bytes.Buffer
		if err := m.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading WriteCSV output: %v", err)
		}
		if back.N() != n {
			t.Fatalf("round trip changed size %d -> %d", n, back.N())
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if back.At(i, j) != m.At(i, j) {
					t.Fatalf("round trip changed cell (%d,%d): %g -> %g", i, j, m.At(i, j), back.At(i, j))
				}
			}
		}
	})
}
