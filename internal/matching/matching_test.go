package matching

import (
	"math/rand"
	"testing"
)

// completeEdges builds the edge list of a complete graph from a weight
// function.
func completeEdges(n int, weight func(i, j int) int64) []Edge {
	var es []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			es = append(es, Edge{I: i, J: j, Weight: weight(i, j)})
		}
	}
	return es
}

func checkValidMatching(t *testing.T, n int, mate []int) {
	t.Helper()
	if len(mate) != n {
		t.Fatalf("mate length = %d, want %d", len(mate), n)
	}
	for v, w := range mate {
		if w == -1 {
			continue
		}
		if w < 0 || w >= n || w == v {
			t.Fatalf("mate[%d] = %d out of range", v, w)
		}
		if mate[w] != v {
			t.Fatalf("mate not symmetric: mate[%d]=%d but mate[%d]=%d", v, w, w, mate[w])
		}
	}
}

func TestEmptyAndTrivial(t *testing.T) {
	if got := MaxWeightMatching(0, nil, true); got != nil {
		t.Errorf("n=0 should return nil, got %v", got)
	}
	got := MaxWeightMatching(1, nil, false)
	if len(got) != 1 || got[0] != -1 {
		t.Errorf("n=1 = %v", got)
	}
	got = MaxWeightMatching(2, []Edge{{0, 1, 5}}, false)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("single edge = %v", got)
	}
}

func TestNegativeWeightSkippedWithoutMaxCard(t *testing.T) {
	got := MaxWeightMatching(2, []Edge{{0, 1, -5}}, false)
	if got[0] != -1 || got[1] != -1 {
		t.Errorf("negative edge should not match, got %v", got)
	}
	got = MaxWeightMatching(2, []Edge{{0, 1, -5}}, true)
	if got[0] != 1 {
		t.Errorf("maxCardinality should force the match, got %v", got)
	}
}

func TestPathGraph(t *testing.T) {
	// Path 0-1-2-3 with weights 5, 11, 5: optimum picks the middle edge
	// without maxCardinality (11 > 5+5? No: 5+5=10 < 11), so {1,2}.
	got := MaxWeightMatching(4, []Edge{{0, 1, 5}, {1, 2, 11}, {2, 3, 5}}, false)
	if got[1] != 2 || got[0] != -1 || got[3] != -1 {
		t.Errorf("got %v, want middle edge only", got)
	}
	// With maxCardinality, both outer edges are taken (cardinality first).
	got = MaxWeightMatching(4, []Edge{{0, 1, 5}, {1, 2, 11}, {2, 3, 5}}, true)
	if got[0] != 1 || got[2] != 3 {
		t.Errorf("maxcard got %v, want outer edges", got)
	}
}

// Classic blossom test cases from the reference implementation's test suite.
func TestBlossomCases(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		edges   []Edge
		maxCard bool
		want    []int
	}{
		{
			name:  "s-blossom and use for augmentation",
			n:     4,
			edges: []Edge{{0, 1, 8}, {0, 2, 9}, {1, 2, 10}, {2, 3, 7}},
			want:  []int{1, 0, 3, 2},
		},
		{
			name: "s-blossom with path extension",
			n:    6,
			edges: []Edge{{0, 1, 8}, {0, 2, 9}, {1, 2, 10}, {2, 3, 7},
				{0, 5, 5}, {3, 4, 6}},
			want: []int{5, 2, 1, 4, 3, 0},
		},
		{
			name: "create nested s-blossom, use for augmentation",
			n:    6,
			edges: []Edge{{0, 1, 9}, {0, 2, 9}, {1, 2, 10}, {1, 3, 8},
				{2, 4, 8}, {3, 4, 10}, {4, 5, 6}},
			want: []int{2, 3, 0, 1, 5, 4},
		},
		{
			name: "expand t-blossom",
			n:    8,
			edges: []Edge{{0, 1, 9}, {0, 2, 8}, {1, 2, 10}, {0, 3, 5},
				{3, 4, 4}, {0, 5, 3}, {4, 5, 3}, {1, 6, 11}, {2, 7, 11}},
			want: []int{3, 6, 7, 0, 5, 4, 1, 2},
		},
		{
			name: "s-blossom, relabel as t-blossom, use for augmentation",
			n:    8,
			edges: []Edge{{0, 1, 9}, {0, 2, 8}, {1, 2, 10}, {0, 3, 5},
				{3, 4, 3}, {1, 6, 4}, {0, 5, 3}, {5, 6, 4}, {6, 7, 2}},
			want: []int{3, 2, 1, 0, -1, 6, 5, -1}, // (1,2)+(0,3)+(5,6) = 19
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := MaxWeightMatching(c.n, c.edges, c.maxCard)
			checkValidMatching(t, c.n, got)
			gotW := MatchingWeight(got, weightOracle(c.edges))
			wantW := MatchingWeight(c.want, weightOracle(c.edges))
			if gotW != wantW {
				t.Errorf("weight = %d (%v), want %d (%v)", gotW, got, wantW, c.want)
			}
		})
	}
}

func weightOracle(edges []Edge) func(i, j int) int64 {
	return func(i, j int) int64 {
		for _, e := range edges {
			if (e.I == i && e.J == j) || (e.I == j && e.J == i) {
				return e.Weight
			}
		}
		return 0
	}
}

func TestAgainstBruteForceRandomComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 * (1 + rng.Intn(4)) // 2, 4, 6, 8
		w := make(map[[2]int]int64)
		weight := func(i, j int) int64 {
			if i > j {
				i, j = j, i
			}
			return w[[2]int{i, j}]
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				w[[2]int{i, j}] = int64(rng.Intn(100))
			}
		}
		got := MaxWeightMatching(n, completeEdges(n, weight), true)
		checkValidMatching(t, n, got)
		for v, m := range got {
			if m == -1 {
				t.Fatalf("trial %d: vertex %d unmatched in complete graph with maxCardinality", trial, v)
			}
		}
		_, wantW := BruteForcePerfect(n, weight)
		if gotW := MatchingWeight(got, weight); gotW != wantW {
			t.Fatalf("trial %d (n=%d): weight %d, brute force %d, mate %v", trial, n, gotW, wantW, got)
		}
	}
}

func TestAgainstBruteForceSparse(t *testing.T) {
	// Sparse random graphs without maxCardinality: compare total weight to
	// exhaustive search over all matchings.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(6) // 2..7 vertices, any parity
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.6 {
					edges = append(edges, Edge{i, j, int64(rng.Intn(50))})
				}
			}
		}
		got := MaxWeightMatching(n, edges, false)
		checkValidMatching(t, n, got)
		gotW := MatchingWeight(got, weightOracle(edges))
		_, wantW := bruteForce(n, edges, false)
		if gotW != wantW {
			t.Fatalf("trial %d: weight %d, want %d (edges %v, mate %v)", trial, gotW, wantW, edges, got)
		}
	}
}

// bruteForce exhaustively searches every matching over edges (not
// necessarily perfect) and returns the cardinality and weight of the best:
// the heaviest, or with maxCard the heaviest of those with the most pairs.
func bruteForce(n int, edges []Edge, maxCard bool) (int, int64) {
	bestCard, bestW := 0, int64(0)
	used := make([]bool, n)
	var rec func(idx, card int, acc int64)
	rec = func(idx, card int, acc int64) {
		if maxCard && card != bestCard {
			if card > bestCard {
				bestCard, bestW = card, acc
			}
		} else if acc > bestW {
			bestCard, bestW = card, acc
		}
		for k := idx; k < len(edges); k++ {
			e := edges[k]
			if !used[e.I] && !used[e.J] {
				used[e.I], used[e.J] = true, true
				rec(k+1, card+1, acc+e.Weight)
				used[e.I], used[e.J] = false, false
			}
		}
	}
	rec(0, 0, 0)
	return bestCard, bestW
}

// FuzzMaxWeightMatching is Edmonds' differential oracle on graphs of up to
// ten vertices. The first byte gives n (its low nibble mod 11) and
// maxCardinality (bit 4). Each further byte is one vertex pair, in the
// order (0,1), (0,2), ..., (n-2,n-1): an odd byte makes the pair an edge of
// weight int8(byte)>>1, in [-64, 63]. So a pair appears at most once and
// there are no self-loops, as internal/mapping builds its edges. The result
// must be a symmetric matching over given edges whose weight equals an
// exhaustive search's (with maxCardinality, after the same cardinality),
// and the solver's optimality certificate must hold.
func FuzzMaxWeightMatching(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, maxCard := int(data[0]&0x0f)%11, data[0]&0x10 != 0
		data = data[1:]
		var edges []Edge
		isEdge := make(map[[2]int]bool)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n && len(data) > 0; j++ {
				if b := data[0]; b&1 == 1 {
					edges = append(edges, Edge{i, j, int64(int8(b) >> 1)})
					isEdge[[2]int{i, j}] = true
				}
				data = data[1:]
			}
		}
		mate := MaxWeightMatching(n, edges, maxCard)
		if len(mate) != n {
			t.Fatalf("n=%d: mate %v", n, mate)
		}
		card := 0
		for v, w := range mate {
			if w == -1 {
				continue
			}
			if w < 0 || w >= n || mate[w] != v || !isEdge[[2]int{min(v, w), max(v, w)}] {
				t.Fatalf("mate %v is not a matching over the edges %v", mate, edges)
			}
			if v < w {
				card++
			}
		}
		weight := weightOracle(edges)
		gotW := MatchingWeight(mate, weight)
		wantCard, wantW := bruteForce(n, edges, maxCard)
		if maxCard && card != wantCard || gotW != wantW {
			t.Fatalf("maxCard=%v: %d pairs of weight %d, exhaustive search %d of weight %d (edges %v, mate %v)",
				maxCard, card, gotW, wantCard, wantW, edges, mate)
		}
		vmate, err := MaxWeightMatchingVerified(n, edges, maxCard)
		if err != nil {
			t.Fatalf("edges %v, maxCard=%v: %v", edges, maxCard, err)
		}
		if vw := MatchingWeight(vmate, weight); vw != gotW {
			t.Fatalf("verified matching weighs %d, unverified %d", vw, gotW)
		}
	})
}

func TestMaxCardinalityAlwaysPerfectOnComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 8, 16, 32} {
		weight := func(i, j int) int64 { return int64(rng.Intn(1000)) }
		edges := completeEdges(n, weight)
		w := weightOracle(edges)
		got := MaxWeightMatching(n, edges, true)
		checkValidMatching(t, n, got)
		for v, m := range got {
			if m == -1 {
				t.Errorf("n=%d: vertex %d unmatched", n, v)
			}
		}
		_ = w
	}
}

func TestZeroWeightsStillPerfect(t *testing.T) {
	// Threads that do not communicate produce zero-weight edges; mapping
	// still needs a perfect matching.
	n := 8
	got := MaxWeightMatching(n, completeEdges(n, func(i, j int) int64 { return 0 }), true)
	checkValidMatching(t, n, got)
	for v, m := range got {
		if m == -1 {
			t.Errorf("vertex %d unmatched", v)
		}
	}
}

func TestInvalidEdgePanics(t *testing.T) {
	for _, e := range []Edge{{0, 0, 1}, {-1, 1, 1}, {0, 5, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edge %v should panic", e)
				}
			}()
			MaxWeightMatching(3, []Edge{e}, false)
		}()
	}
}

func TestGreedyValidAndDecent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 * (2 + rng.Intn(3))
		weight := func(i, j int) int64 {
			if i > j {
				i, j = j, i
			}
			return int64((i*31+j)*17%100 + 1)
		}
		edges := completeEdges(n, weight)
		mate := Greedy(n, edges)
		checkValidMatching(t, n, mate)
		for v, m := range mate {
			if m == -1 {
				t.Fatalf("greedy on complete graph left %d unmatched", v)
			}
		}
		// Greedy achieves at least half the optimum (classic guarantee).
		opt := MaxWeightMatching(n, edges, true)
		gw := MatchingWeight(mate, weight)
		ow := MatchingWeight(opt, weight)
		if 2*gw < ow {
			t.Errorf("greedy weight %d below half of optimum %d", gw, ow)
		}
	}
}

func TestGreedyPicksHeaviestFirst(t *testing.T) {
	mate := Greedy(4, []Edge{{0, 1, 1}, {2, 3, 1}, {1, 2, 100}})
	if mate[1] != 2 {
		t.Errorf("greedy should take the weight-100 edge first, got %v", mate)
	}
}

func TestPairs(t *testing.T) {
	pairs := Pairs([]int{1, 0, 3, 2, -1})
	if len(pairs) != 2 || pairs[0] != [2]int{0, 1} || pairs[1] != [2]int{2, 3} {
		t.Errorf("Pairs = %v", pairs)
	}
}

func TestVerifiedMatchingOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(14)
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.7 {
					edges = append(edges, Edge{i, j, int64(rng.Intn(200))})
				}
			}
		}
		for _, maxCard := range []bool{false, true} {
			mate, err := MaxWeightMatchingVerified(n, edges, maxCard)
			if err != nil {
				t.Fatalf("trial %d (maxCard=%v): %v", trial, maxCard, err)
			}
			checkValidMatching(t, n, mate)
		}
	}
	if got, err := MaxWeightMatchingVerified(0, nil, true); got != nil || err != nil {
		t.Errorf("n=0: %v, %v", got, err)
	}
}

func TestBruteForcePanicsOnOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd n should panic")
		}
	}()
	BruteForcePerfect(3, func(i, j int) int64 { return 0 })
}

func BenchmarkEdmonds32Complete(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	edges := completeEdges(32, func(i, j int) int64 { return int64(rng.Intn(10000)) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxWeightMatching(32, edges, true)
	}
}

func BenchmarkGreedy32Complete(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	edges := completeEdges(32, func(i, j int) int64 { return int64(rng.Intn(10000)) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(32, edges)
	}
}
