package workloads

import (
	"fmt"
	"math/rand"
)

// Class scales a workload's footprint and duration. Tests use ClassTiny;
// the benchmark harness uses ClassSmall or ClassA.
type Class struct {
	Name            string
	PrivatePages    int    // per-thread private region, pages
	BoundaryPages   int    // per-pair shared region, pages
	GlobalPages     int    // globally shared region, pages
	Accesses        uint64 // memory accesses per thread
	ComputePerMemop int    // compute cycles between accesses
}

// Validate rejects a negative page count or ComputePerMemop, naming the
// field. Region sizes are page counts times PageBytes as unsigned values, so
// a negative count would map exabytes, and a negative compute gap wraps the
// instruction count. Zero is valid; the workloads that read Accesses check
// it themselves.
func (c Class) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"PrivatePages", c.PrivatePages},
		{"BoundaryPages", c.BoundaryPages},
		{"GlobalPages", c.GlobalPages},
		{"ComputePerMemop", c.ComputePerMemop},
	} {
		if f.v < 0 {
			return fmt.Errorf("workloads: class %q %s = %d, want a value >= 0", c.Name, f.name, f.v)
		}
	}
	return nil
}

// Predefined classes. Sizes balance two constraints: footprints must span
// enough pages for page-granularity detection to see the sharing structure,
// while accesses-per-line must be high enough that cold misses do not
// dominate the cache counters (NPB kernels reuse each line thousands of
// times; see DESIGN.md §4 "Scale").
var (
	// ClassTest is for unit tests: fast, still detectable patterns.
	ClassTest = Class{Name: "test", PrivatePages: 8, BoundaryPages: 3, GlobalPages: 8, Accesses: 4_000, ComputePerMemop: 2}
	// ClassTiny drives integration tests and quick experiments.
	ClassTiny = Class{Name: "tiny", PrivatePages: 16, BoundaryPages: 4, GlobalPages: 16, Accesses: 24_000, ComputePerMemop: 2}
	// ClassSmall is the default for the benchmark harness.
	ClassSmall = Class{Name: "small", PrivatePages: 48, BoundaryPages: 12, GlobalPages: 64, Accesses: 200_000, ComputePerMemop: 2}
	// ClassA approaches the paper's NPB class A working-set scale.
	ClassA = Class{Name: "A", PrivatePages: 128, BoundaryPages: 24, GlobalPages: 128, Accesses: 800_000, ComputePerMemop: 2}
)

// SynthSpec parameterizes one synthetic kernel.
type SynthSpec struct {
	KernelName string
	Threads    int
	Class      Class

	// Graph defines pairwise communication partners; nil means none.
	Graph CommGraph

	// PairRatio is the probability that an access targets a partner's
	// shared pair region (drawn from Graph weights).
	PairRatio float64

	// GlobalRatio is the probability that an access targets the global
	// region shared by all threads (all-to-all communication, FT/IS).
	GlobalRatio float64

	// WriteRatio is the store fraction on shared regions.
	WriteRatio float64

	// DurationScale multiplies Class.Accesses (DC runs ~500x longer than
	// CG in the paper; the scale keeps relative durations plausible
	// without letting one kernel dominate simulation time).
	DurationScale float64
}

// Validate reports parameter errors.
func (s SynthSpec) Validate() error {
	switch {
	case s.KernelName == "":
		return fmt.Errorf("workloads: kernel name empty")
	case s.Threads <= 0:
		return fmt.Errorf("workloads: threads = %d", s.Threads)
	case s.PairRatio < 0 || s.GlobalRatio < 0 || s.PairRatio+s.GlobalRatio > 1:
		return fmt.Errorf("workloads: ratios invalid (pair %g, global %g)", s.PairRatio, s.GlobalRatio)
	case s.WriteRatio < 0 || s.WriteRatio > 1:
		return fmt.Errorf("workloads: write ratio %g", s.WriteRatio)
	case s.Class.Accesses == 0:
		return fmt.Errorf("workloads: class has zero accesses")
	}
	return s.Class.Validate()
}

// Synth is the generic synthetic kernel.
type Synth struct {
	spec SynthSpec
	// peers[t] is spec.Graph(t, Threads), evaluated once: the graph does
	// not depend on the run seed, and some graphs (Irregular) seed random
	// sources on every call. Read-only after NewSynth, so runs share it.
	peers [][]PeerWeight
}

// NewSynth builds a synthetic kernel from spec; it panics on invalid specs
// (they are programmer-supplied constants).
func NewSynth(spec SynthSpec) *Synth {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.DurationScale == 0 {
		spec.DurationScale = 1
	}
	s := &Synth{spec: spec, peers: make([][]PeerWeight, spec.Threads)}
	if spec.Graph != nil {
		for t := range s.peers {
			s.peers[t] = spec.Graph(t, spec.Threads)
		}
	}
	return s
}

// Name returns the kernel name.
func (s *Synth) Name() string { return s.KernelName() }

// KernelName returns the kernel name (e.g. "SP").
func (s *Synth) KernelName() string { return s.spec.KernelName }

// NumThreads returns the thread count.
func (s *Synth) NumThreads() int { return s.spec.Threads }

// AccessesPerThread returns each thread's total work.
func (s *Synth) AccessesPerThread() uint64 {
	return uint64(float64(s.spec.Class.Accesses) * s.spec.DurationScale)
}

// ComputeCyclesPerAccess returns the inter-access compute gap.
func (s *Synth) ComputeCyclesPerAccess() int { return s.spec.Class.ComputePerMemop }

// Spec returns a copy of the specification.
func (s *Synth) Spec() SynthSpec { return s.spec }

// synthThread is the per-thread stream state.
type synthThread struct {
	rng       *rand.Rand
	remaining uint64
	private   cursor
	global    cursor
	peers     []PeerWeight
	peerCum   []float64 // cumulative weights for sampling
	peerCur   []cursor
}

type synthRun struct {
	s       *Synth
	threads []synthThread
	// init state: the serial sweep touches one address per page of every
	// region, like the master-thread array initialization of NPB.
	initPages []uint64
	initPos   int
}

// NewRun instantiates deterministic streams for one execution.
func (s *Synth) NewRun(seed int64) Run {
	n := s.spec.Threads
	cl := s.spec.Class
	run := &synthRun{s: s, threads: make([]synthThread, n)}
	addRegionPages := func(base, size uint64) {
		for off := uint64(0); off < size; off += PageBytes {
			run.initPages = append(run.initPages, base+off)
		}
	}
	addRegionPages(globalBase, uint64(cl.GlobalPages)*PageBytes)
	pairSeen := make(map[uint64]bool)
	for t := 0; t < n; t++ {
		addRegionPages(privateRegion(t, uint64(cl.PrivatePages)*PageBytes),
			uint64(cl.PrivatePages)*PageBytes)
		for _, pw := range s.peers[t] {
			base := pairRegion(t, pw.Peer, n, uint64(cl.BoundaryPages)*PageBytes)
			if !pairSeen[base] {
				pairSeen[base] = true
				addRegionPages(base, uint64(cl.BoundaryPages)*PageBytes)
			}
		}
	}
	for t := 0; t < n; t++ {
		th := &run.threads[t]
		th.rng = rand.New(rand.NewSource(seed*1_000_003 + int64(t)))
		th.remaining = s.AccessesPerThread()
		th.private = newCursor(privateRegion(t, uint64(cl.PrivatePages)*PageBytes),
			uint64(cl.PrivatePages)*PageBytes)
		th.global = newCursor(globalBase, uint64(cl.GlobalPages)*PageBytes)
		th.peers = s.peers[t]
		total := 0.0
		for _, pw := range th.peers {
			total += pw.Weight
			th.peerCum = append(th.peerCum, total)
			th.peerCur = append(th.peerCur, newCursor(
				pairRegion(t, pw.Peer, n, uint64(cl.BoundaryPages)*PageBytes),
				uint64(cl.BoundaryPages)*PageBytes))
		}
	}
	return run
}

// NextInit produces the serial initialization sweep (one write per page of
// every region, by the master thread, as NPB-OpenMP does).
func (r *synthRun) NextInit(buf []InitAccess) int {
	n := 0
	for n < len(buf) && r.initPos < len(r.initPages) {
		buf[n] = InitAccess{Thread: 0, Access: Access{Addr: r.initPages[r.initPos], Write: true}}
		r.initPos++
		n++
	}
	return n
}

// Next generates up to len(buf) accesses for thread t.
func (r *synthRun) Next(t int, buf []Access) int {
	th := &r.threads[t]
	spec := r.s.spec
	n := 0
	for n < len(buf) && th.remaining > 0 {
		th.remaining--
		x := th.rng.Float64()
		var addr uint64
		var write bool
		switch {
		case x < spec.PairRatio && len(th.peers) > 0:
			// Communication with a partner through the shared region.
			k := pickPeer(th.peerCum, th.rng.Float64())
			addr = th.peerCur[k].next(th.rng)
			write = th.rng.Float64() < spec.WriteRatio
		case x < spec.PairRatio+spec.GlobalRatio:
			addr = th.global.next(th.rng)
			write = th.rng.Float64() < spec.WriteRatio/2
		default:
			addr = th.private.next(th.rng)
			write = th.rng.Float64() < 0.3
		}
		buf[n] = Access{Addr: addr, Write: write}
		n++
	}
	return n
}

// pickPeer samples an index from the cumulative weight vector.
func pickPeer(cum []float64, u float64) int {
	total := cum[len(cum)-1]
	x := u * total
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}
