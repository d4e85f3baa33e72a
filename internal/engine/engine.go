// Package engine executes a parallel workload on the simulated machine: it
// drives each thread's access stream through the MMU (internal/vm) and the
// coherent cache hierarchy (internal/cache), runs the active mapping policy
// (which may observe page faults and migrate threads), and collects the
// metrics the paper's evaluation reports (execution time, MPKI,
// cache-to-cache transactions, energy, overheads).
//
// The execution model is virtual-time round-robin: every thread owns a
// cycle clock advanced by the latency of its own accesses, and the engine
// always advances the thread whose clock is lowest (a min-heap). This keeps
// thread clocks tightly interleaved — like the barrier-synchronized OpenMP
// kernels being modeled — while letting badly-placed threads fall behind
// and finish later, which is exactly how placement quality becomes
// execution time.
//
// One run skeleton (Run) serves two access loops: the sequential min-clock
// loop and the epoch-sharded loop (shard.go). Setup, the serial-init phase,
// the policy tick catch-up, registry snapshots and the metrics finalize are
// shared; only the loop differs.
package engine

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"spcd/internal/cache"
	"spcd/internal/commmatrix"
	"spcd/internal/energy"
	"spcd/internal/faultinject"
	"spcd/internal/obs"
	"spcd/internal/runtimeobs"
	"spcd/internal/topology"
	"spcd/internal/vm"
	"spcd/internal/workloads"
)

// Env gives a policy access to the simulation objects it may hook into.
type Env struct {
	Machine    *topology.Machine
	AS         *vm.AddressSpace
	Caches     *cache.Hierarchy
	Workload   workloads.Workload
	Seed       int64
	NumThreads int
	// Injector is the run's fault injector, nil on fault-free runs. Policies
	// consult it for their own degradation sites (sampler saturation, remap
	// delays); its methods are nil-safe.
	Injector *faultinject.Injector
}

// Overheads is the modeled cost a policy imposed on the run, split the way
// Figure 16 reports it.
type Overheads struct {
	DetectionCycles uint64 // fault-handler work + sampler kernel thread
	MappingCycles   uint64 // communication filter + mapping algorithm
}

// Policy decides thread placement. One Policy instance drives one run.
type Policy interface {
	// Name identifies the policy in reports: "os", "random", "oracle",
	// "spcd", or the comparators "tlb" and "hwc", which run SPCD's
	// evaluate-and-migrate loop on a different detection mechanism.
	Name() string
	// Init is called once before the run with the simulation environment.
	Init(env *Env) error
	// InitialAffinity returns the starting thread -> context placement.
	InitialAffinity() []int
	// Tick is called periodically with the current simulated time. A
	// non-nil return migrates threads to the returned affinity.
	Tick(now uint64) []int
	// Overheads returns the modeled cost accounting for the run so far.
	Overheads() Overheads
	// FinalMatrix returns the communication matrix the policy detected,
	// or nil if it does not detect communication.
	FinalMatrix() *commmatrix.Matrix
}

// Config parameterizes one simulation run.
type Config struct {
	Machine  *topology.Machine
	Workload workloads.Workload
	Policy   Policy
	Seed     int64

	// BatchAccesses is how many accesses a thread retires per scheduling
	// slice; smaller values interleave threads more finely.
	BatchAccesses int
	// TickIntervalCycles is how often the policy's Tick runs.
	TickIntervalCycles uint64
	// MigrationCostCycles is charged to every migrated thread (kernel
	// work, context transfer); cache refill costs emerge naturally.
	MigrationCostCycles uint64
	// EnergyParams drives the energy model; zero value selects defaults.
	EnergyParams *energy.Params
	// AllocPolicy selects the NUMA page-homing policy (numactl-style);
	// the zero value is first-touch, the paper's setting.
	AllocPolicy vm.AllocPolicy
	// Probe, when non-nil, records a virtual-time metrics time series and
	// event trace for this run (see internal/obs). The probe must be fresh:
	// one Probe observes exactly one run. nil disables observability; the
	// disabled path costs one sentinel comparison per scheduling slice and
	// allocates nothing.
	Probe *obs.Probe
	// Injector, when non-nil, arms deterministic fault injection for this
	// run (see internal/faultinject): lost/duplicated fault notifications
	// and failing page migrations in the MMU, degraded detection in the
	// policy, and per-thread stall bursts in the scheduling loop. One
	// injector drives exactly one run. nil (the default) is a strict no-op:
	// the hot loop pays one pointer comparison per slice and the simulated
	// stream is byte-identical to a run without injection support.
	Injector *faultinject.Injector
	// Shards selects the execution engine. 0 (the default) runs the
	// sequential engine — the exact code path every golden metric and
	// zero-alloc gate pins. Values >= 1 run the epoch-sharded engine (see
	// shard.go / DESIGN.md §13) with that many workers; its results are
	// byte-identical for every worker count, but — deliberately and
	// deterministically — not identical to the sequential engine's, because
	// cross-core coherence effects land at epoch boundaries. Values above
	// the machine's core count are clamped (extra workers would own no
	// cores); negative values are an error.
	Shards int
	// Runtime, when non-nil, records host wall-clock spans for this run
	// (see internal/runtimeobs): where the *host* spends time, as opposed
	// to Probe's virtual-time view of the simulated machine. The contract
	// is strictly one-way — the engine emits stamps into it and never reads
	// host time back — so attaching a runtime proc cannot change results
	// (the runtimeobs-isolation lint rule enforces this). nil disables it;
	// the disabled path is nil-receiver no-ops outside the access loop.
	Runtime *runtimeobs.Proc
}

// normalize fills in defaults and validates.
func (c *Config) normalize() error {
	if c.Machine == nil {
		return errors.New("engine: Machine is required")
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.Workload == nil {
		return errors.New("engine: Workload is required")
	}
	if c.Policy == nil {
		return errors.New("engine: Policy is required")
	}
	if c.Workload.NumThreads() > c.Machine.NumContexts() {
		return fmt.Errorf("engine: %d threads exceed %d hardware contexts",
			c.Workload.NumThreads(), c.Machine.NumContexts())
	}
	if c.Shards < 0 {
		return fmt.Errorf("engine: negative Shards %d", c.Shards)
	}
	if c.BatchAccesses <= 0 {
		c.BatchAccesses = 48
	}
	if c.TickIntervalCycles == 0 {
		// Scale the tick to the workload's nominal duration so policy
		// periods (which are themselves scaled, see internal/policy)
		// get enough tick resolution regardless of run length.
		c.TickIntervalCycles = workloads.NominalCycles(c.Workload) / 512
		if c.TickIntervalCycles == 0 {
			c.TickIntervalCycles = 1
		}
	}
	if c.MigrationCostCycles == 0 {
		// Direct kernel cost of moving one thread (~2.5 us). The dominant
		// real cost of a migration — refilling caches on the new core —
		// emerges naturally from the cache simulator.
		c.MigrationCostCycles = 5_000
	}
	if c.EnergyParams == nil {
		p := energy.DefaultParams()
		c.EnergyParams = &p
	}
	c.Shards = min(c.Shards, c.Machine.NumCores())
	return c.EnergyParams.Validate()
}

// Metrics is the outcome of one run: the simulated equivalents of the
// paper's PAPI / VTune / RAPL measurements.
type Metrics struct {
	Policy   string
	Workload string
	Seed     int64

	ExecSeconds  float64
	ExecCycles   uint64
	Instructions uint64

	L2MPKI float64
	L3MPKI float64

	Cache cache.Stats
	VM    vm.Stats

	Energy energy.Breakdown

	// Migrations counts remapping events (Ticks that moved at least one
	// thread); MigratedThreads counts individual thread moves.
	Migrations      int
	MigratedThreads int

	DetectionOverheadPct float64
	MappingOverheadPct   float64

	// CommMatrix is the communication pattern the policy detected (nil
	// for policies without detection).
	CommMatrix *commmatrix.Matrix

	// Shootdown is the translation-coherence cost model's tally; all-zero
	// under topology.ShootdownNone.
	Shootdown vm.ShootdownStats
}

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%s/%s: %.4fs, L2 %.2f MPKI, L3 %.2f MPKI, c2c %d, proc %.2f J, dram %.3f J, migrations %d",
		m.Workload, m.Policy, m.ExecSeconds, m.L2MPKI, m.L3MPKI,
		m.Cache.C2CTotal(), m.Energy.ProcessorJoules, m.Energy.DRAMJoules, m.Migrations)
}

// thread is one application thread's scheduling state, shared by both
// access loops (the sharded engine embeds it in shardThread).
type thread struct {
	id    int
	clock uint64
	done  bool
}

// clockHeap orders runnable threads by their cycle clock.
type clockHeap []*thread

func (h clockHeap) Len() int            { return len(h) }
func (h clockHeap) Less(i, j int) bool  { return h[i].clock < h[j].clock }
func (h clockHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *clockHeap) Push(x interface{}) { *h = append(*h, x.(*thread)) }
func (h *clockHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// sim is one run's state. Both access loops run on it; everything else —
// setup, the serial-init phase, the policy tick catch-up, registry
// snapshots and the metrics finalize — exists once, here.
type sim struct {
	cfg      *Config
	mach     *topology.Machine
	n        int
	as       *vm.AddressSpace
	caches   *cache.Hierarchy
	run      workloads.Run
	inj      *faultinject.Injector
	probe    *obs.Probe
	affinity []int
	// affScratch is reused by every affinity validation (one per migration
	// tick); allocating a map there showed up in migration-heavy profiles.
	affScratch []bool
	threads    []*thread

	compute   uint64
	pageShift uint
	pageMask  uint64

	instructions uint64
	migrations   int
	movedThreads int
	nextTick     uint64
	// sdStalls is the reusable per-core buffer for draining shootdown
	// remote stalls.
	sdStalls []uint64

	// nextSample is the next registry-snapshot boundary; the MaxUint64
	// sentinel makes the disabled path a single always-false comparison.
	nextSample     uint64
	sampleInterval uint64
	movedHist      *obs.Histogram
}

// Run executes one simulation and returns its metrics. cfg.Shards selects
// the access loop: the sequential min-clock loop (0) or the epoch-sharded
// loop (>= 1). Everything around the loop is shared.
func Run(cfg Config) (Metrics, error) {
	if err := cfg.normalize(); err != nil {
		return Metrics{}, err
	}
	// Host-time spans (see internal/runtimeobs): run-level init / finalize
	// on the run lane for both engines, all taken outside the access loops.
	// Strictly one-way — stamps go in, no host time comes back — so results
	// are byte-identical with rt nil or attached.
	rt := cfg.Runtime
	rtRun := rt.Lane("run")
	tStart := rt.Now()
	s, err := newSim(&cfg)
	if err != nil {
		return Metrics{}, err
	}
	tLoop := rt.Now()
	rtRun.SpanAt(runtimeobs.SpanInit, tStart, tLoop, -1, -1)

	if cfg.Shards > 0 {
		err = s.epochLoop()
	} else {
		err = s.minClockLoop()
	}
	if err != nil {
		return Metrics{}, err
	}
	// Thread clocks never decrease, so the run ends at the largest final
	// clock.
	var execCycles uint64
	for _, th := range s.threads {
		execCycles = max(execCycles, th.clock)
	}
	s.probe.Snapshot(execCycles)
	tFin := rt.Now()
	if cfg.Shards == 0 {
		// The sharded loop records per-worker simulate spans instead; a
		// run-lane span on top would be counted into its simulate time.
		rtRun.SpanAt(runtimeobs.SpanSimulate, tLoop, tFin, -1, -1)
	}

	m := s.metrics(execCycles)
	tEnd := rt.Now()
	rtRun.SpanAt(runtimeobs.SpanFinalize, tFin, tEnd, -1, -1)
	rtRun.SpanAt(runtimeobs.SpanRun, tStart, tEnd, -1, -1)
	rt.SetMeta("kind", "engine")
	if cfg.Shards > 0 {
		rt.SetMeta("mode", "epoch-sharded")
		rt.SetMetaInt("shards", int64(cfg.Shards))
	} else {
		rt.SetMeta("mode", "sequential")
	}
	return m, nil
}

// newSim builds a run's state: address space, caches, injector and sharer
// wiring, probe registration, Policy.Init, the initial affinity, the engine
// counters, and the serial-init phase. cfg must be normalized.
func newSim(cfg *Config) (*sim, error) {
	mach := cfg.Machine
	n := cfg.Workload.NumThreads()
	s := &sim{cfg: cfg, mach: mach, n: n,
		as:     vm.NewAddressSpace(mach),
		caches: cache.New(mach),
		run:    cfg.Workload.NewRun(cfg.Seed),
		inj:    cfg.Injector,
		probe:  cfg.Probe,

		compute:    uint64(cfg.Workload.ComputeCyclesPerAccess()),
		nextTick:   cfg.TickIntervalCycles,
		nextSample: math.MaxUint64,
	}
	as, caches, probe := s.as, s.caches, s.probe
	as.SetAllocPolicy(cfg.AllocPolicy)
	as.SetInjector(s.inj)
	// The cache directory supplies the shootdown sharer sets; under
	// ShootdownNone the MMU never consults it. Shootdowns only happen in
	// policy ticks, where (in the sharded engine too) the directory is
	// merged and quiescent.
	as.SetSharerSource(caches)
	s.pageShift = as.PageShift()
	s.pageMask = uint64(mach.PageSize - 1)

	// Observability wiring happens before Policy.Init so a policy that
	// implements obs.Observer can register its own metrics and emit events
	// from the very first tick. Everything here is off the access path: the
	// registry reads subsystem counters through closures at snapshot time.
	if probe != nil {
		probe.SetDefaultClockHz(mach.ClockHz)
		as.RegisterObs(probe)
		caches.RegisterObs(probe)
		s.inj.RegisterObs(probe)
		if o, ok := cfg.Policy.(obs.Observer); ok {
			o.SetProbe(probe)
		}
	}

	env := &Env{Machine: mach, AS: as, Caches: caches, Workload: cfg.Workload,
		Seed: cfg.Seed, NumThreads: n, Injector: s.inj}
	if err := cfg.Policy.Init(env); err != nil {
		return nil, err
	}
	s.affinity = append([]int(nil), cfg.Policy.InitialAffinity()...)
	s.affScratch = make([]bool, mach.NumContexts())
	if err := checkAffinity(s.affinity, n, mach.NumContexts(), s.affScratch); err != nil {
		return nil, err
	}
	s.threads = make([]*thread, n)
	for t := range s.threads {
		s.threads[t] = &thread{id: t}
	}

	if probe != nil {
		reg := probe.Registry()
		reg.CounterFunc("engine.instructions", func() uint64 { return s.instructions })
		reg.CounterFunc("engine.migrations", func() uint64 { return uint64(s.migrations) })
		reg.CounterFunc("engine.migrated_threads", func() uint64 { return uint64(s.movedThreads) })
		s.movedHist = reg.Histogram("engine.moved_per_remap", []float64{1, 2, 4, 8, 16})
		s.sampleInterval = probe.SampleIntervalCycles()
		if s.sampleInterval == 0 {
			// ~256 rows per run regardless of workload class.
			s.sampleInterval = workloads.NominalCycles(cfg.Workload) / 256
			if s.sampleInterval == 0 {
				s.sampleInterval = 1
			}
		}
		s.nextSample = s.sampleInterval
		probe.Snapshot(0)
	}
	s.serialInit()
	return s, nil
}

// serialInit runs the serial initialization phase: the master thread
// (thread 0) touches the data set, homing pages by first touch, before the
// parallel threads start (implicit barrier). It runs against the live
// state in both engines.
func (s *sim) serialInit() {
	init, ok := s.run.(workloads.Initializer)
	if !ok {
		return
	}
	as, caches, affinity, n := s.as, s.caches, s.affinity, s.n
	compute, pageShift, pageMask := s.compute, s.pageShift, s.pageMask
	clock := uint64(0)
	ibuf := make([]workloads.InitAccess, s.cfg.BatchAccesses)
	for {
		k := init.NextInit(ibuf)
		if k == 0 {
			break
		}
		for _, a := range ibuf[:k] {
			ctx := affinity[a.Thread%n]
			// Fused fast path; see minClockLoop for the contract.
			frame, node, hit := as.AccessFast(ctx, a.Addr)
			if !hit {
				tr := as.Access(a.Thread%n, ctx, a.Addr, a.Write, clock)
				frame, node = tr.Frame, tr.Node
				clock += uint64(tr.Cycles)
			}
			phys := uint64(frame)<<pageShift | (a.Addr & pageMask)
			if cyc, ok := caches.AccessFast(ctx, phys, a.Write); ok {
				clock += compute + uint64(cyc)
			} else {
				res := caches.Access(ctx, phys, a.Write, node)
				clock += compute + uint64(res.Cycles)
			}
		}
		s.instructions += uint64(k) * (1 + compute)
	}
	for _, th := range s.threads {
		th.clock = clock
	}
	if s.probe != nil {
		s.probe.Emit(clock, "engine", "init.done", -1, obs.Uint("cycles", clock))
	}
}

// minClockLoop is the sequential engine: it always advances the thread
// whose clock is lowest, so every coherence and page-table effect lands
// instantly, in global virtual-time order.
func (s *sim) minClockLoop() error {
	// Hot state lives in locals for the whole loop.
	as, caches, run, inj, probe := s.as, s.caches, s.run, s.inj, s.probe
	affinity := s.affinity
	compute, pageShift, pageMask := s.compute, s.pageShift, s.pageMask
	nextTick, nextSample := s.nextTick, s.nextSample
	buf := make([]workloads.Access, s.cfg.BatchAccesses)
	h := append(make(clockHeap, 0, len(s.threads)), s.threads...)
	heap.Init(&h)

	for h.Len() > 0 {
		th := h[0]
		now := th.clock

		// Policy tick (sampler wakeups, matrix evaluation, migrations).
		if now >= nextTick {
			clocksMoved, err := s.tick(now)
			if err != nil {
				return err
			}
			nextTick = s.nextTick
			// Re-heapify only when a migration or stall charged cycles: on a
			// quiet tick h is still a valid heap and heap.Init would be a
			// structural no-op (sift-down never swaps on ties), so skipping
			// it cannot change the scheduling order.
			if clocksMoved {
				heap.Init(&h)
				th = h[0]
			}
		}

		// Registry snapshot boundaries (off when nextSample is the sentinel).
		if nextSample <= now {
			s.snapshot(now)
			nextSample = s.nextSample
		}

		// Injected thread stall: the thread loses its slice to modeled
		// external load and is rescheduled after the burst. The injector
		// clamps the stall rate below 1 and every entry point that takes a
		// plan rejects a NaN rate (Plan.Validate), so every thread always
		// eventually retires accesses and the loop terminates.
		if inj != nil {
			if burst := inj.StallCycles(); burst > 0 {
				if probe != nil {
					probe.Emit(th.clock, "engine", "stall.injected", th.id,
						obs.Uint("cycles", burst))
				}
				th.clock += burst
				heap.Fix(&h, 0)
				continue
			}
		}

		k := run.Next(th.id, buf)
		if k == 0 {
			th.done = true
			probe.Emit(th.clock, "engine", "thread.done", th.id)
			heap.Pop(&h)
			continue
		}
		ctx := affinity[th.id]
		clock := th.clock
		for _, a := range buf[:k] {
			// Fused fast path: a TLB hit followed by an L1 hit — the vast
			// majority of steady-state accesses — is resolved with two
			// array probes and no Translation/AccessResult construction.
			// Either layer falls back to its full path independently, and
			// both fast paths perform exactly the state transitions and
			// counter updates the full paths would, so the simulation
			// stream is byte-identical either way.
			frame, node, hit := as.AccessFast(ctx, a.Addr)
			if !hit {
				tr := as.Access(th.id, ctx, a.Addr, a.Write, clock)
				frame, node = tr.Frame, tr.Node
				clock += uint64(tr.Cycles)
			}
			// Caches are physically indexed: densely allocated frames
			// avoid the set aliasing a sparse virtual layout would cause.
			phys := uint64(frame)<<pageShift | (a.Addr & pageMask)
			if cyc, ok := caches.AccessFast(ctx, phys, a.Write); ok {
				clock += compute + uint64(cyc)
			} else {
				res := caches.Access(ctx, phys, a.Write, node)
				clock += compute + uint64(res.Cycles)
			}
		}
		s.instructions += uint64(k) * (1 + compute)
		th.clock = clock
		heap.Fix(&h, 0)
	}
	return nil
}

// tick fires every policy tick due at or before until, in boundary order:
// each new affinity is validated, every moved thread is charged
// MigrationCostCycles, and migrate/remap events are emitted. It then drains
// the remote stalls of any shootdowns the ticks issued. It reports whether
// any thread clock moved.
func (s *sim) tick(until uint64) (bool, error) {
	pol, probe := s.cfg.Policy, s.probe
	clocksMoved := false
	for s.nextTick <= until {
		if newAff := pol.Tick(s.nextTick); newAff != nil {
			if err := checkAffinity(newAff, s.n, s.mach.NumContexts(), s.affScratch); err != nil {
				return false, fmt.Errorf("engine: policy %s: %w", pol.Name(), err)
			}
			moved := 0
			for t, ctx := range newAff {
				if ctx != s.affinity[t] {
					moved++
					s.threads[t].clock += s.cfg.MigrationCostCycles
					if probe != nil {
						probe.Emit(s.nextTick, "engine", "migrate", t,
							obs.Uint("from_ctx", uint64(s.affinity[t])),
							obs.Uint("to_ctx", uint64(ctx)))
					}
				}
			}
			if moved > 0 {
				s.migrations++
				s.movedThreads += moved
				clocksMoved = true
				if probe != nil {
					probe.Emit(s.nextTick, "engine", "remap", -1, obs.Uint("moved", uint64(moved)))
					s.movedHist.Observe(float64(moved))
				}
			}
			copy(s.affinity, newAff)
		}
		s.nextTick += s.cfg.TickIntervalCycles
	}
	// Remote TLB-invalidate stalls: each affected core's cycles land on the
	// live threads placed there, in thread order, against the post-tick
	// affinity. All shootdown sources run inside Policy.Tick, so this drain
	// is the only place the charge can appear, single-threaded in both
	// engines and so byte-identical at every shard count.
	stalls, any := s.as.DrainRemoteStalls(s.sdStalls)
	s.sdStalls = stalls
	if any {
		for t, th := range s.threads {
			if th.done {
				continue
			}
			if sc := stalls[s.mach.CoreOf(s.affinity[t])]; sc > 0 {
				th.clock += sc
				clocksMoved = true
			}
		}
	}
	return clocksMoved, nil
}

// snapshot takes the registry snapshots at every boundary up to until.
// Boundary-timestamped so same-seed runs sample at identical instants.
func (s *sim) snapshot(until uint64) {
	for s.nextSample <= until {
		s.probe.Snapshot(s.nextSample)
		s.nextSample += s.sampleInterval
	}
}

// metrics assembles the run's Metrics once the loop has finished.
func (s *sim) metrics(execCycles uint64) Metrics {
	cfg := s.cfg
	m := Metrics{
		Policy:          cfg.Policy.Name(),
		Workload:        cfg.Workload.Name(),
		Seed:            cfg.Seed,
		ExecCycles:      execCycles,
		ExecSeconds:     s.mach.CyclesToSeconds(execCycles),
		Instructions:    s.instructions,
		Cache:           s.caches.Stats(),
		VM:              s.as.Stats(),
		Migrations:      s.migrations,
		MigratedThreads: s.movedThreads,
		CommMatrix:      cfg.Policy.FinalMatrix(),
		Shootdown:       s.as.ShootdownStats(),
	}
	if s.instructions > 0 {
		m.L2MPKI = float64(m.Cache.L2Misses) / float64(s.instructions) * 1000
		m.L3MPKI = float64(m.Cache.L3Misses) / float64(s.instructions) * 1000
	}
	m.Energy = energy.Compute(*cfg.EnergyParams, s.mach, m.ExecSeconds, s.instructions, m.Cache)

	ov := cfg.Policy.Overheads()
	// Induced page faults stall the application directly; their cost is
	// part of the detection overhead (§V-F), together with the modeled
	// handler and sampler work. Shootdowns split the same way: present-bit
	// clears are sampler activity (detection); remap shootdowns are charged
	// inside the policy's migration accounting (MappingCycles), so only the
	// clear-side initiator stall is added here.
	inducedCycles := m.VM.InducedFaults * uint64(s.as.Costs().InducedFault)
	totalCPU := float64(execCycles) * float64(s.n)
	if totalCPU > 0 {
		m.DetectionOverheadPct = 100 * float64(ov.DetectionCycles+inducedCycles+m.Shootdown.ClearInitCycles) / totalCPU
		m.MappingOverheadPct = 100 * float64(ov.MappingCycles) / totalCPU
	}
	return m
}

// checkAffinity validates a thread->context placement. scratch must have
// length contexts; it is cleared and reused so the per-migration validation
// allocates nothing.
func checkAffinity(aff []int, n, contexts int, scratch []bool) error {
	if len(aff) != n {
		return fmt.Errorf("affinity covers %d threads, want %d", len(aff), n)
	}
	for i := range scratch {
		scratch[i] = false
	}
	for t, ctx := range aff {
		if ctx < 0 || ctx >= contexts {
			return fmt.Errorf("thread %d mapped to invalid context %d", t, ctx)
		}
		if scratch[ctx] {
			return fmt.Errorf("context %d assigned to two threads", ctx)
		}
		scratch[ctx] = true
	}
	return nil
}
