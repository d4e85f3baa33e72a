package workloads

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"spcd/internal/commmatrix"
)

// drain runs a thread's stream to completion, returning all accesses.
func drain(r Run, t int) []Access {
	var out []Access
	buf := make([]Access, 256)
	for {
		n := r.Next(t, buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// groundTruth replays all threads of a run and builds the page-sharing
// communication matrix: for each page, every pair of threads that both
// touch it communicates in proportion to their access counts.
func groundTruth(w Workload, seed int64) *commmatrix.Matrix {
	r := w.NewRun(seed)
	n := w.NumThreads()
	perPage := map[uint64][]uint32{} // page -> access count per thread
	for t := 0; t < n; t++ {
		for _, a := range drain(r, t) {
			page := a.Addr / PageBytes
			counts := perPage[page]
			if counts == nil {
				counts = make([]uint32, n)
				perPage[page] = counts
			}
			counts[t]++
		}
	}
	m := commmatrix.New(n)
	for _, counts := range perPage {
		for i := 0; i < n; i++ {
			if counts[i] == 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if counts[j] == 0 {
					continue
				}
				min := counts[i]
				if counts[j] < min {
					min = counts[j]
				}
				m.Add(i, j, float64(min))
			}
		}
	}
	return m
}

func TestNPBNamesConstructAll(t *testing.T) {
	for _, name := range NPBNames {
		w, err := NewNPB(name, 32, ClassTiny)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Name() != name || w.NumThreads() != 32 {
			t.Errorf("%s: identity wrong", name)
		}
		if w.AccessesPerThread() == 0 {
			t.Errorf("%s: zero work", name)
		}
	}
	if _, err := NewNPB("XX", 32, ClassTiny); err == nil {
		t.Error("unknown kernel should error")
	}
}

func TestStreamsDeterministicPerSeed(t *testing.T) {
	w, _ := NewNPB("SP", 8, ClassTiny)
	a := drain(w.NewRun(42), 3)
	b := drain(w.NewRun(42), 3)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := drain(w.NewRun(43), 3)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should produce different streams")
	}
}

func TestStreamsIndependentOfInterleaving(t *testing.T) {
	w, _ := NewNPB("BT", 4, ClassTiny)
	// Draining thread 2 first must not change thread 1's stream.
	r1 := w.NewRun(7)
	drain(r1, 2)
	s1 := drain(r1, 1)
	r2 := w.NewRun(7)
	s2 := drain(r2, 1)
	if len(s1) != len(s2) {
		t.Fatal("stream length depends on interleaving")
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("stream content depends on interleaving")
		}
	}
}

func TestWorkAmountMatchesSpec(t *testing.T) {
	w, _ := NewNPB("LU", 4, ClassTiny)
	got := uint64(len(drain(w.NewRun(1), 0)))
	if got != w.AccessesPerThread() {
		t.Errorf("drained %d accesses, want %d", got, w.AccessesPerThread())
	}
}

func TestDurationScales(t *testing.T) {
	dc, _ := NewNPB("DC", 8, ClassTiny)
	cg, _ := NewNPB("CG", 8, ClassTiny)
	sp, _ := NewNPB("SP", 8, ClassTiny)
	if dc.AccessesPerThread() <= sp.AccessesPerThread() {
		t.Error("DC should run longer than SP")
	}
	if cg.AccessesPerThread() >= sp.AccessesPerThread() {
		t.Error("CG should run shorter than SP")
	}
}

func TestGridFor(t *testing.T) {
	cases := []struct{ n, rows, cols int }{
		{32, 8, 4}, {16, 4, 4}, {8, 4, 2}, {4, 2, 2}, {2, 2, 1}, {7, 7, 1},
	}
	for _, c := range cases {
		r, col := gridFor(c.n)
		if r != c.rows || col != c.cols {
			t.Errorf("gridFor(%d) = %dx%d, want %dx%d", c.n, r, col, c.rows, c.cols)
		}
		if r*col != c.n {
			t.Errorf("gridFor(%d) does not multiply back", c.n)
		}
	}
}

func TestSPPatternIsNeighbourHeavy(t *testing.T) {
	w, _ := NewNPB("SP", 8, ClassTiny) // grid 4x2
	m := groundTruth(w, 11)
	// Grid neighbours of thread 0 (4x2 row-major): 1 (east) and 2 (south).
	neighbour := m.At(0, 1) + m.At(0, 2)
	distant := m.At(0, 5) + m.At(0, 7)
	if neighbour <= 4*distant {
		t.Errorf("SP: neighbour comm %g should dominate distant %g", neighbour, distant)
	}
	if m.Heterogeneity() < 0.5 {
		t.Errorf("SP heterogeneity = %g, want clearly heterogeneous", m.Heterogeneity())
	}
}

func TestFTPatternIsHomogeneous(t *testing.T) {
	w, _ := NewNPB("FT", 8, ClassTiny)
	m := groundTruth(w, 11)
	if m.Total() == 0 {
		t.Fatal("FT should communicate")
	}
	if h := m.Heterogeneity(); h > 0.4 {
		t.Errorf("FT heterogeneity = %g, want homogeneous (< 0.4)", h)
	}
}

func TestEPCommunicatesAlmostNothing(t *testing.T) {
	ep, _ := NewNPB("EP", 8, ClassTiny)
	sp, _ := NewNPB("SP", 8, ClassTiny)
	epComm := groundTruth(ep, 11).Total()
	spComm := groundTruth(sp, 11).Total()
	if epComm*20 > spComm {
		t.Errorf("EP comm %g should be tiny versus SP %g", epComm, spComm)
	}
}

func TestHeterogeneityOrdering(t *testing.T) {
	// The paper's classification: BT/SP/LU/UA/MG heterogeneous, FT/IS/EP
	// homogeneous. CG/DC are weakly heterogeneous.
	het := map[string]float64{}
	for _, name := range NPBNames {
		w, _ := NewNPB(name, 32, ClassTiny)
		het[name] = groundTruth(w, 5).Heterogeneity()
	}
	for _, strong := range []string{"BT", "SP", "LU", "UA", "MG"} {
		for _, homo := range []string{"FT", "IS"} {
			if het[strong] <= het[homo] {
				t.Errorf("%s (%.2f) should be more heterogeneous than %s (%.2f)",
					strong, het[strong], homo, het[homo])
			}
		}
	}
}

func TestPairRegionSymmetric(t *testing.T) {
	if pairRegion(3, 7, 32, 4096) != pairRegion(7, 3, 32, 4096) {
		t.Error("pair region must not depend on argument order")
	}
	if pairRegion(0, 1, 32, 4096) == pairRegion(0, 2, 32, 4096) {
		t.Error("distinct pairs need distinct regions")
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	w, _ := NewNPB("SP", 32, ClassSmall)
	r := w.NewRun(1)
	buf := make([]Access, 4096)
	for t0 := 0; t0 < 4; t0++ {
		n := r.Next(t0, buf)
		for _, a := range buf[:n] {
			inGlobal := a.Addr < pairBase
			inPair := a.Addr >= pairBase && a.Addr < privateBase
			inPriv := a.Addr >= privateBase
			if !inGlobal && !inPair && !inPriv {
				t.Fatalf("address %#x outside all regions", a.Addr)
			}
		}
	}
}

func TestSynthSpecValidation(t *testing.T) {
	bad := []SynthSpec{
		{},
		{KernelName: "X", Threads: 0, Class: ClassTiny},
		{KernelName: "X", Threads: 2, Class: ClassTiny, PairRatio: 0.9, GlobalRatio: 0.2},
		{KernelName: "X", Threads: 2, Class: ClassTiny, WriteRatio: 1.5},
		{KernelName: "X", Threads: 2, Class: Class{}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestCommGraphs(t *testing.T) {
	if got := Ring1D(0, 8); len(got) != 2 || got[0].Peer != 1 || got[1].Peer != 7 {
		t.Errorf("Ring1D(0,8) = %v", got)
	}
	if Ring1D(0, 1) != nil {
		t.Error("Ring1D with one thread should be nil")
	}
	g := Grid2D(2, 2)
	if got := g(0, 4); len(got) != 2 {
		t.Errorf("corner of 2x2 grid should have 2 neighbours, got %v", got)
	}
	if got := Grid2D(3, 3)(4, 9); len(got) != 4 {
		t.Errorf("center of 3x3 grid should have 4 neighbours, got %v", got)
	}
	mg := Multigrid(0, 16)
	if len(mg) <= 2 {
		t.Errorf("Multigrid should add distant partners, got %v", mg)
	}
	pipe := Pipeline(0, 4)
	if len(pipe) != 1 || pipe[0].Peer != 1 {
		t.Errorf("Pipeline(0,4) = %v", pipe)
	}
	irr := Irregular(3)(5, 32)
	if len(irr) != 3 {
		t.Errorf("Irregular(3) should give 3 peers, got %v", irr)
	}
	irr2 := Irregular(3)(5, 32)
	for i := range irr {
		if irr[i] != irr2[i] {
			t.Error("Irregular must be stable across calls")
		}
	}
}

// --- Producer/consumer ---

func TestProducerConsumerValidation(t *testing.T) {
	if _, err := NewProducerConsumer(3, ClassTiny, 2, 100); err == nil {
		t.Error("odd thread count should error")
	}
	if _, err := NewProducerConsumer(2, ClassTiny, 2, 100); err == nil {
		t.Error("two threads cannot form distinct phases")
	}
	if _, err := NewProducerConsumer(8, ClassTiny, 0, 100); err == nil {
		t.Error("zero phases should error")
	}
	if _, err := NewProducerConsumer(8, ClassTiny, 2, 0); err == nil {
		t.Error("zero phase length should error")
	}
}

func TestProducerConsumerPartners(t *testing.T) {
	p, _ := NewProducerConsumer(8, ClassTiny, 2, 100)
	if p.PartnerInPhase(0, 0) != 1 || p.PartnerInPhase(1, 0) != 0 {
		t.Error("phase 0 should pair neighbours")
	}
	if p.PartnerInPhase(0, 1) != 4 || p.PartnerInPhase(4, 1) != 0 {
		t.Error("phase 1 should pair distant threads")
	}
	for ph := 0; ph < 2; ph++ {
		for th := 0; th < 8; th++ {
			if p.PartnerInPhase(p.PartnerInPhase(th, ph), ph) != th {
				t.Fatalf("partner relation not symmetric at phase %d thread %d", ph, th)
			}
		}
	}
}

func TestProducerConsumerPhaseCommunication(t *testing.T) {
	p, _ := NewProducerConsumer(8, ClassTiny, 2, 2000)
	r := p.NewRun(3)
	// First phase accesses of threads 0 and 1 overlap in their pair
	// region; second phase accesses of 0 overlap with thread 4's.
	pages := func(t0 int, from, to int) map[uint64]bool {
		all := drain(r, t0)
		set := map[uint64]bool{}
		for _, a := range all[from:to] {
			if a.Addr >= pairBase && a.Addr < privateBase {
				set[a.Addr/PageBytes] = true
			}
		}
		return set
	}
	ph1t0 := pages(0, 0, 2000)
	r = p.NewRun(3)
	ph1t1 := pages(1, 0, 2000)
	r = p.NewRun(3)
	ph2t0 := pages(0, 2000, 4000)
	r = p.NewRun(3)
	ph2t4 := pages(4, 2000, 4000)

	if !overlaps(ph1t0, ph1t1) {
		t.Error("phase 1: threads 0 and 1 should share pages")
	}
	if !overlaps(ph2t0, ph2t4) {
		t.Error("phase 2: threads 0 and 4 should share pages")
	}
	if overlaps(ph1t0, ph2t4) {
		t.Error("phase 1 pages of thread 0 should not coincide with thread 4's phase 2 region... (distinct pair regions)")
	}
}

func overlaps(a, b map[uint64]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

func TestProducerConsumerWorkTotal(t *testing.T) {
	p, _ := NewProducerConsumer(4, ClassTiny, 3, 500)
	if p.AccessesPerThread() != 1500 {
		t.Errorf("AccessesPerThread = %d, want 1500", p.AccessesPerThread())
	}
	if got := uint64(len(drain(p.NewRun(1), 2))); got != 1500 {
		t.Errorf("drained %d, want 1500", got)
	}
	if p.Name() == "" || p.NumThreads() != 4 || p.ComputeCyclesPerAccess() < 0 {
		t.Error("identity accessors broken")
	}
	if p.PhaseLength() != 500 {
		t.Errorf("PhaseLength = %d", p.PhaseLength())
	}
}

// TestConcurrentRunsOfOneSynth: NewSynth evaluates the communication graph
// once and every run reads the kept peer lists, so runs made concurrently
// from one workload, as a parallel sweep of one Workload makes them, must
// produce the streams a lone run produces. Run it with -race.
func TestConcurrentRunsOfOneSynth(t *testing.T) {
	w, err := NewNPB("UA", 8, ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		r := w.NewRun(3)
		var b strings.Builder
		fmt.Fprint(&b, drainInit(r))
		for th := 0; th < w.NumThreads(); th++ {
			fmt.Fprint(&b, drain(r, th))
		}
		return b.String()
	}
	want := render()
	got := make([]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = render()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("concurrent run %d differs from a lone run", i)
		}
	}
}
