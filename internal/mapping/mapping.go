// Package mapping implements the paper's mapping mechanism (§IV): the
// communication filter that decides whether the communication matrix changed
// enough to warrant a migration (§IV-A), and the thread-mapping algorithm
// that hierarchically pairs threads with Edmonds' matching and the Eq. 1
// group heuristic, then places the groups onto the machine topology (§IV-B).
package mapping

import (
	"errors"
	"fmt"

	"spcd/internal/commmatrix"
	"spcd/internal/matching"
	"spcd/internal/topology"
)

// Matcher computes a matching on a complete weighted graph, returning the
// mate array. The production matcher is Edmonds; Greedy is the ablation.
type Matcher func(n int, edges []matching.Edge) []int

// Edmonds is the default matcher: maximum-weight perfect matching.
func Edmonds(n int, edges []matching.Edge) []int {
	return matching.MaxWeightMatching(n, edges, true)
}

// Greedy is the ablation matcher: heaviest-edge-first pairing.
func Greedy(n int, edges []matching.Edge) []int {
	return matching.Greedy(n, edges)
}

// Filter is the communication filter of §IV-A. Each thread's "partner" is
// the thread it communicates most with; the mapping algorithm only runs when
// at least Threshold threads changed partner since the last accepted
// pattern. The paper uses Threshold = 2: two changed partners usually mean
// two threads started communicating with each other.
type Filter struct {
	threshold int
	partners  []int
	primed    bool

	evaluations uint64
	triggers    uint64
}

// NewFilter creates a filter for n threads. Threshold must be positive.
func NewFilter(n, threshold int) (*Filter, error) {
	if n <= 0 {
		return nil, errors.New("mapping: filter needs at least one thread")
	}
	if threshold <= 0 {
		return nil, errors.New("mapping: threshold must be positive")
	}
	return &Filter{threshold: threshold, partners: make([]int, n)}, nil
}

// Changed evaluates the matrix and reports whether the mapping algorithm
// should run. The reference partners are updated only when the filter
// triggers, so slow cumulative drift still eventually exceeds the threshold.
// The first evaluation of a non-empty matrix always triggers.
func (f *Filter) Changed(m *commmatrix.Matrix) bool {
	if m.N() != len(f.partners) {
		panic("mapping: matrix size does not match filter")
	}
	f.evaluations++
	current := make([]int, m.N())
	for i := range current {
		current[i], _ = m.Partner(i)
	}
	if !f.primed {
		if m.Total() == 0 {
			return false
		}
		f.primed = true
		copy(f.partners, current)
		f.triggers++
		return true
	}
	changed := 0
	for i, p := range current {
		if p != f.partners[i] {
			changed++
		}
	}
	if changed >= f.threshold {
		copy(f.partners, current)
		f.triggers++
		return true
	}
	return false
}

// Evaluations returns how many times the filter ran.
func (f *Filter) Evaluations() uint64 { return f.evaluations }

// Triggers returns how many times the filter requested a remapping.
func (f *Filter) Triggers() uint64 { return f.triggers }

// weightScale converts float communication amounts to the integer weights
// the matcher needs, preserving relative magnitude.
const weightScale = 1 << 20

func edgesFromMatrix(m *commmatrix.Matrix) []matching.Edge {
	n := m.N()
	max := m.Max()
	scale := 1.0
	if max > 0 {
		scale = weightScale / max
	}
	edges := make([]matching.Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, matching.Edge{
				I: i, J: j, Weight: int64(m.At(i, j)*scale + 0.5),
			})
		}
	}
	return edges
}

// Compute derives a thread-to-context mapping from the communication matrix
// using the hierarchical algorithm of §IV-B:
//
//  1. Threads are paired by maximum-weight perfect matching on the
//     communication graph.
//  2. Pairs are repeatedly grouped by matching on the Eq. 1 group matrix
//     until one group per socket remains.
//  3. Each socket group is flattened (matched sub-groups stay adjacent) and
//     laid onto the socket's contexts in order; with 2-way SMT the level-1
//     pairs land on SMT siblings, exactly as the paper intends.
//
// The matrix may cover fewer threads than the machine has contexts; missing
// threads are padded with zero-communication dummies and dropped from the
// result. The returned affinity maps thread -> hardware context.
func Compute(m *commmatrix.Matrix, mach *topology.Machine, match Matcher) ([]int, error) {
	n := m.N()
	contexts := mach.NumContexts()
	if err := checkShape(mach, n); err != nil {
		return nil, err
	}
	if match == nil {
		match = Edmonds
	}

	// Pad to the full context count so every fold halves the group count.
	padded := m
	if n < contexts {
		padded = commmatrix.New(contexts)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				padded.Set(i, j, m.At(i, j))
			}
		}
	}

	groups := make([][]int, contexts)
	for i := range groups {
		groups[i] = []int{i}
	}
	for len(groups) > mach.Sockets {
		gm := padded.Group(groups)
		mate := match(gm.N(), edgesFromMatrix(gm))
		next := make([][]int, 0, len(groups)/2)
		for a, b := range mate {
			if b < 0 {
				return nil, fmt.Errorf("mapping: matcher left group %d unmatched", a)
			}
			if b > a {
				merged := make([]int, 0, len(groups[a])+len(groups[b]))
				merged = append(merged, groups[a]...)
				merged = append(merged, groups[b]...)
				next = append(next, merged)
			}
		}
		groups = next
	}

	affinity := make([]int, n)
	for i := range affinity {
		affinity[i] = -1
	}
	for s, g := range groups {
		ctxs := mach.SocketContexts(s)
		for i, th := range g {
			if th < n {
				affinity[th] = ctxs[i]
			}
		}
	}
	for t, c := range affinity {
		if c < 0 {
			return nil, fmt.Errorf("mapping: thread %d unplaced", t)
		}
	}
	return affinity, nil
}

func isPow2(x int) bool { return x > 0 && x&(x-1) == 0 }

// checkShape reports whether the hierarchical mapping can lay n threads out
// on mach: every fold halves the group count, so both the socket count and
// the contexts per socket must be powers of two.
func checkShape(mach *topology.Machine, n int) error {
	contexts := mach.NumContexts()
	if n > contexts {
		return fmt.Errorf("mapping: %d threads exceed %d contexts", n, contexts)
	}
	if contexts%mach.Sockets != 0 || !isPow2(contexts/mach.Sockets) {
		return fmt.Errorf("mapping: contexts per socket (%d) must be a power of two",
			contexts/mach.Sockets)
	}
	if !isPow2(mach.Sockets) {
		return fmt.Errorf("mapping: socket count %d must be a power of two", mach.Sockets)
	}
	return nil
}

// Cost evaluates a mapping's communication cost: the sum over thread pairs
// of communication volume times the machine's cache-to-cache latency at the
// pair's placement distance. Lower is better. It is the objective the
// mapping minimizes (§II-A), and tests and the oracle use it to compare
// placements.
func Cost(m *commmatrix.Matrix, mach *topology.Machine, affinity []int) float64 {
	if len(affinity) != m.N() {
		panic("mapping: affinity size mismatch")
	}
	total := 0.0
	for i := 0; i < m.N(); i++ {
		for j := i + 1; j < m.N(); j++ {
			v := m.At(i, j)
			if v == 0 {
				continue
			}
			total += v * float64(mach.C2CLatency(affinity[i], affinity[j]))
		}
	}
	return total
}

// CostModel parameterizes the modeled execution cost of running the filter
// and the mapping algorithm, feeding the overhead accounting of §V-F.
type CostModel struct {
	FilterCyclesPerCell uint64 // filter is Theta(N^2)
	MatchCyclesPerOp    uint64 // Edmonds is O(N^3)
}

// DefaultCostModel reflects small constant factors measured on commodity
// hardware for these algorithm sizes (a 32-thread Edmonds run is well under
// a millisecond).
func DefaultCostModel() CostModel {
	return CostModel{FilterCyclesPerCell: 4, MatchCyclesPerOp: 15}
}

// Mapper ties the filter and the algorithm together and accounts for their
// modeled cost, the "mapping overhead" of Figure 16.
type Mapper struct {
	mach   *topology.Machine
	filter *Filter
	match  Matcher
	cost   CostModel

	mappingCycles uint64
	computations  uint64
}

// NewMapper builds a Mapper for n threads on machine mach with the paper's
// filter threshold of 2. A nil matcher selects Edmonds. A machine shape
// Compute cannot lay out is an error here, before any evaluation.
func NewMapper(mach *topology.Machine, n int, match Matcher) (*Mapper, error) {
	if err := checkShape(mach, n); err != nil {
		return nil, err
	}
	f, err := NewFilter(n, 2)
	if err != nil {
		return nil, err
	}
	if match == nil {
		match = Edmonds
	}
	return &Mapper{mach: mach, filter: f, match: match, cost: DefaultCostModel()}, nil
}

// SetCostModel overrides the modeled algorithm costs.
func (mp *Mapper) SetCostModel(c CostModel) { mp.cost = c }

// Evaluate runs the filter on the matrix and, when it triggers, computes a
// new mapping. It returns the new affinity (nil when no remapping is
// warranted).
func (mp *Mapper) Evaluate(m *commmatrix.Matrix) ([]int, error) {
	n := uint64(m.N())
	mp.mappingCycles += mp.cost.FilterCyclesPerCell * n * n
	if !mp.filter.Changed(m) {
		return nil, nil
	}
	mp.mappingCycles += mp.cost.MatchCyclesPerOp * n * n * n
	mp.computations++
	return Compute(m, mp.mach, mp.match)
}

// MappingCycles returns the modeled cycles spent in filter + algorithm.
func (mp *Mapper) MappingCycles() uint64 { return mp.mappingCycles }

// Computations returns how many times the full algorithm ran.
func (mp *Mapper) Computations() uint64 { return mp.computations }

// Filter exposes the underlying filter (for stats).
func (mp *Mapper) Filter() *Filter { return mp.filter }
