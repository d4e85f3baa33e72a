// Package commmatrix implements the communication matrix (paper §II-B):
// a symmetric N x N matrix in which cell (i, j) accumulates the amount of
// communication detected between threads i and j. It also provides the
// grouped matrix of Eq. 1 used by the hierarchical mapping algorithm, and
// the pattern metrics (heterogeneity, similarity) used to classify and
// validate detected patterns.
package commmatrix

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Matrix is a symmetric communication matrix over n threads. The diagonal is
// always zero: a thread does not communicate with itself.
type Matrix struct {
	n     int
	cells []float64
}

// New creates an n x n zero matrix. It panics if n < 0.
func New(n int) *Matrix {
	if n < 0 {
		panic(fmt.Sprintf("commmatrix: invalid size %d", n))
	}
	return &Matrix{n: n, cells: make([]float64, n*n)}
}

// N returns the number of threads.
func (m *Matrix) N() int { return m.n }

func (m *Matrix) idx(i, j int) int { return i*m.n + j }

// Add accumulates amount into cells (i, j) and (j, i). Self-communication
// (i == j) is ignored.
func (m *Matrix) Add(i, j int, amount float64) {
	if i == j {
		return
	}
	m.cells[m.idx(i, j)] += amount
	m.cells[m.idx(j, i)] += amount
}

// At returns the amount of communication between threads i and j.
func (m *Matrix) At(i, j int) float64 { return m.cells[m.idx(i, j)] }

// Set overwrites the symmetric pair of cells (i, j)/(j, i).
func (m *Matrix) Set(i, j int, amount float64) {
	if i == j {
		return
	}
	m.cells[m.idx(i, j)] = amount
	m.cells[m.idx(j, i)] = amount
}

// Reset zeroes every cell.
func (m *Matrix) Reset() {
	for i := range m.cells {
		m.cells[i] = 0
	}
}

// Copy returns a deep copy of the matrix.
func (m *Matrix) Copy() *Matrix {
	c := New(m.n)
	copy(c.cells, m.cells)
	return c
}

// AddMatrix accumulates other into m. The sizes must match.
func (m *Matrix) AddMatrix(other *Matrix) {
	if other.n != m.n {
		panic("commmatrix: size mismatch")
	}
	for i := range m.cells {
		m.cells[i] += other.cells[i]
	}
}

// Scale multiplies every cell by f. It is used to age the matrix so that the
// detected pattern tracks the current phase of the application.
func (m *Matrix) Scale(f float64) {
	for i := range m.cells {
		m.cells[i] *= f
	}
}

// Total returns the sum of the upper triangle (each pair counted once).
func (m *Matrix) Total() float64 {
	sum := 0.0
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			sum += m.At(i, j)
		}
	}
	return sum
}

// Max returns the largest cell value.
func (m *Matrix) Max() float64 {
	max := 0.0
	for _, v := range m.cells {
		if v > max {
			max = v
		}
	}
	return max
}

// Normalized returns a copy scaled so the largest cell is 1. A zero matrix
// is returned unchanged.
func (m *Matrix) Normalized() *Matrix {
	c := m.Copy()
	if max := c.Max(); max > 0 {
		c.Scale(1 / max)
	}
	return c
}

// Partner returns the thread that communicates most with thread i, and the
// amount. If thread i has no communication, it returns (-1, 0). Ties go to
// the lowest thread ID, which keeps the communication filter deterministic.
func (m *Matrix) Partner(i int) (partner int, amount float64) {
	partner = -1
	for j := 0; j < m.n; j++ {
		if j == i {
			continue
		}
		if v := m.At(i, j); v > amount {
			amount = v
			partner = j
		}
	}
	return partner, amount
}

// Heterogeneity returns the coefficient of variation (stddev/mean) of the
// off-diagonal cells. Homogeneous patterns (FT, IS, EP in the paper) have
// values near zero; domain-decomposition patterns (BT, SP, LU, UA) have
// large values. A zero matrix has heterogeneity 0.
func (m *Matrix) Heterogeneity() float64 {
	if m.n < 2 {
		return 0
	}
	count := 0
	mean := 0.0
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			mean += m.At(i, j)
			count++
		}
	}
	mean /= float64(count)
	if mean == 0 {
		return 0
	}
	ss := 0.0
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			d := m.At(i, j) - mean
			ss += d * d
		}
	}
	return math.Sqrt(ss/float64(count)) / mean
}

// Similarity returns the Pearson correlation between the off-diagonal cells
// of m and other, used to quantify detection accuracy against a ground-truth
// matrix. It returns 0 when either matrix is constant.
func (m *Matrix) Similarity(other *Matrix) float64 {
	if other.n != m.n {
		panic("commmatrix: size mismatch")
	}
	var xs, ys []float64
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			xs = append(xs, m.At(i, j))
			ys = append(ys, other.At(i, j))
		}
	}
	return pearson(xs, ys)
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n == 0 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Group builds the matrix between thread groups using the heuristic of
// Eq. 1: the communication between two groups is the sum of the pairwise
// communication between their members,
//
//	H_{(x,y),(z,k)} = M_{(x,z)} + M_{(x,k)} + M_{(y,z)} + M_{(y,k)}.
//
// The groups must be disjoint; the result has one row per group.
func (m *Matrix) Group(groups [][]int) *Matrix {
	g := New(len(groups))
	for a := 0; a < len(groups); a++ {
		for b := a + 1; b < len(groups); b++ {
			sum := 0.0
			for _, x := range groups[a] {
				for _, z := range groups[b] {
					sum += m.At(x, z)
				}
			}
			g.Set(a, b, sum)
		}
	}
	return g
}

// WriteCSV writes the matrix as comma-separated rows.
func (m *Matrix) WriteCSV(w io.Writer) error {
	var sb strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%g", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// ReadCSV parses a matrix previously written by WriteCSV. The input must be
// a square grid of comma-separated finite, non-negative counts with a zero
// diagonal; asymmetric input is rejected because communication matrices are
// symmetric by construction (§II-B).
func ReadCSV(r io.Reader) (*Matrix, error) {
	var rows [][]float64
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		row := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("commmatrix: row %d column %d: %w", len(rows), i, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, fmt.Errorf("commmatrix: row %d column %d: %g is not a finite non-negative count",
					len(rows), i, v)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Every row's length is checked before any cell is compared with its
	// mirror, and before the n x n matrix is allocated.
	n := len(rows)
	for i, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("commmatrix: row %d has %d columns, want %d", i, len(row), n)
		}
	}
	m := New(n)
	for i, row := range rows {
		for j, v := range row {
			switch {
			case i == j && v != 0:
				return nil, fmt.Errorf("commmatrix: nonzero diagonal at %d", i)
			case i < j:
				if rows[j][i] != v {
					return nil, fmt.Errorf("commmatrix: asymmetric at (%d,%d): %g vs %g", i, j, v, rows[j][i])
				}
				m.Set(i, j, v)
			}
		}
	}
	return m, nil
}

// String renders a compact textual form for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "commmatrix %dx%d total=%g\n", m.n, m.n, m.Total())
	return sb.String()
}
