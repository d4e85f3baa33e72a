package commmatrix

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddSymmetric(t *testing.T) {
	m := New(4)
	m.Add(0, 3, 5)
	m.Add(3, 0, 2)
	if m.At(0, 3) != 7 || m.At(3, 0) != 7 {
		t.Errorf("At(0,3)=%g At(3,0)=%g, want 7", m.At(0, 3), m.At(3, 0))
	}
}

func TestDiagonalIgnored(t *testing.T) {
	m := New(3)
	m.Add(1, 1, 100)
	m.Set(2, 2, 100)
	if m.At(1, 1) != 0 || m.At(2, 2) != 0 {
		t.Error("diagonal must stay zero")
	}
	if m.Total() != 0 {
		t.Errorf("Total = %g, want 0", m.Total())
	}
}

func TestSymmetryProperty(t *testing.T) {
	f := func(ops []struct {
		I, J   uint8
		Amount uint16
	}) bool {
		m := New(8)
		for _, op := range ops {
			m.Add(int(op.I%8), int(op.J%8), float64(op.Amount))
		}
		for i := 0; i < 8; i++ {
			if m.At(i, i) != 0 {
				return false
			}
			for j := 0; j < 8; j++ {
				if m.At(i, j) != m.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalCountsPairsOnce(t *testing.T) {
	m := New(3)
	m.Add(0, 1, 4)
	m.Add(1, 2, 6)
	if m.Total() != 10 {
		t.Errorf("Total = %g, want 10", m.Total())
	}
}

func TestScaleAndReset(t *testing.T) {
	m := New(2)
	m.Add(0, 1, 10)
	m.Scale(0.5)
	if m.At(0, 1) != 5 {
		t.Errorf("after Scale: %g", m.At(0, 1))
	}
	m.Reset()
	if m.Total() != 0 {
		t.Error("Reset should zero the matrix")
	}
}

func TestCopyIsDeep(t *testing.T) {
	m := New(2)
	m.Add(0, 1, 1)
	c := m.Copy()
	c.Add(0, 1, 1)
	if m.At(0, 1) != 1 || c.At(0, 1) != 2 {
		t.Error("Copy must not share storage")
	}
}

func TestAddMatrix(t *testing.T) {
	a, b := New(2), New(2)
	a.Add(0, 1, 1)
	b.Add(0, 1, 2)
	a.AddMatrix(b)
	if a.At(0, 1) != 3 {
		t.Errorf("AddMatrix = %g, want 3", a.At(0, 1))
	}
	defer func() {
		if recover() == nil {
			t.Error("size mismatch should panic")
		}
	}()
	a.AddMatrix(New(3))
}

func TestNormalized(t *testing.T) {
	m := New(3)
	m.Add(0, 1, 8)
	m.Add(1, 2, 2)
	n := m.Normalized()
	if n.Max() != 1 {
		t.Errorf("Max of normalized = %g", n.Max())
	}
	if n.At(1, 2) != 0.25 {
		t.Errorf("At(1,2) = %g, want 0.25", n.At(1, 2))
	}
	if m.Max() != 8 {
		t.Error("Normalized must not mutate the receiver")
	}
	z := New(2).Normalized()
	if z.Max() != 0 {
		t.Error("zero matrix normalizes to zero")
	}
}

func TestPartner(t *testing.T) {
	m := New(4)
	m.Add(0, 2, 5)
	m.Add(0, 3, 9)
	p, amt := m.Partner(0)
	if p != 3 || amt != 9 {
		t.Errorf("Partner(0) = %d, %g; want 3, 9", p, amt)
	}
	p, amt = m.Partner(1)
	if p != -1 || amt != 0 {
		t.Errorf("Partner of isolated thread = %d, %g; want -1, 0", p, amt)
	}
}

func TestPartnerTieBreaksLow(t *testing.T) {
	m := New(4)
	m.Add(0, 1, 5)
	m.Add(0, 2, 5)
	if p, _ := m.Partner(0); p != 1 {
		t.Errorf("tie should go to lowest ID, got %d", p)
	}
}

func TestHeterogeneity(t *testing.T) {
	homogeneous := New(4)
	hetero := New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			homogeneous.Add(i, j, 10)
		}
	}
	hetero.Add(0, 1, 100)
	hetero.Add(2, 3, 100)
	if h := homogeneous.Heterogeneity(); h != 0 {
		t.Errorf("uniform matrix heterogeneity = %g, want 0", h)
	}
	if h := hetero.Heterogeneity(); h <= 1 {
		t.Errorf("paired matrix heterogeneity = %g, want > 1", h)
	}
	if New(4).Heterogeneity() != 0 {
		t.Error("zero matrix heterogeneity should be 0")
	}
	if New(1).Heterogeneity() != 0 {
		t.Error("1x1 matrix heterogeneity should be 0")
	}
}

func TestSimilarity(t *testing.T) {
	a, b := New(4), New(4)
	a.Add(0, 1, 10)
	a.Add(2, 3, 4)
	b.Add(0, 1, 20)
	b.Add(2, 3, 8)
	if s := a.Similarity(b); math.Abs(s-1) > 1e-12 {
		t.Errorf("proportional matrices similarity = %g, want 1", s)
	}
	anti := New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			anti.Add(i, j, 10-a.At(i, j))
		}
	}
	if s := a.Similarity(anti); s >= 0 {
		t.Errorf("anticorrelated similarity = %g, want < 0", s)
	}
	if s := a.Similarity(New(4)); s != 0 {
		t.Errorf("similarity to zero matrix = %g, want 0", s)
	}
}

func TestGroupEq1(t *testing.T) {
	// Four threads, groups (0,1) and (2,3):
	// H = M(0,2) + M(0,3) + M(1,2) + M(1,3).
	m := New(4)
	m.Set(0, 2, 1)
	m.Set(0, 3, 2)
	m.Set(1, 2, 3)
	m.Set(1, 3, 4)
	m.Set(0, 1, 100) // intra-group communication must not count
	g := m.Group([][]int{{0, 1}, {2, 3}})
	if g.N() != 2 {
		t.Fatalf("group matrix size = %d", g.N())
	}
	if g.At(0, 1) != 10 {
		t.Errorf("H = %g, want 10", g.At(0, 1))
	}
}

func TestGroupPreservesTotalAcrossGroups(t *testing.T) {
	f := func(vals [6]uint8) bool {
		m := New(4)
		k := 0
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				m.Set(i, j, float64(vals[k]))
				k++
			}
		}
		g := m.Group([][]int{{0, 1}, {2, 3}})
		want := m.At(0, 2) + m.At(0, 3) + m.At(1, 2) + m.At(1, 3)
		return g.At(0, 1) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteCSV(t *testing.T) {
	m := New(2)
	m.Add(0, 1, 3)
	var sb strings.Builder
	if err := m.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "0,3\n3,0\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m := New(4)
	m.Add(0, 1, 3.5)
	m.Add(1, 3, 7)
	m.Add(2, 3, 0.25)
	var sb strings.Builder
	if err := m.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 4 || got.Total() != m.Total() {
		t.Fatalf("round trip lost data: %v vs %v", got.Total(), m.Total())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("cell (%d,%d) = %g, want %g", i, j, got.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	// Each bad input maps to a fragment of the error it must produce.
	cases := map[string]struct{ input, want string }{
		"not a number":     {"0,x\nx,0\n", "row 0 column 1"},
		"ragged rows":      {"0,1\n1,0,2\n", "row 1 has 3 columns, want 2"},
		"non-square":       {"0,1,2\n1,0,2\n", "row 0 has 3 columns, want 2"},
		"asymmetric":       {"0,1\n2,0\n", "asymmetric at (0,1)"},
		"nonzero diagonal": {"5,1\n1,0\n", "nonzero diagonal at 0"},
		"short last row":   {"0,1,2\n1,0,3\n2\n", "row 2 has 1 columns, want 3"},
		"infinite cell":    {"0,Inf\nInf,0\n", "row 0 column 1: +Inf is not a finite non-negative count"},
		"negative cell":    {"0,-5\n-5,0\n", "row 0 column 1: -5 is not a finite non-negative count"},
		"NaN cell":         {"0,NaN\nNaN,0\n", "row 0 column 1: NaN is not a finite non-negative count"},
	}
	for name, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.input))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, c.want)
		}
	}
	// Empty input gives an empty matrix.
	m, err := ReadCSV(strings.NewReader(""))
	if err != nil || m.N() != 0 {
		t.Errorf("empty input = %v, %v", m, err)
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestStringNonEmpty(t *testing.T) {
	if New(2).String() == "" {
		t.Error("String should describe the matrix")
	}
}
