// Package policy implements the thread-placement policies: the four the
// paper evaluates (§V-D) and the two detection mechanisms it compares SPCD
// with (§VI-B):
//
//   - OS: a communication-blind baseline in the spirit of the Linux
//     scheduler: threads spread breadth-first across sockets and cores, with
//     occasional load-balancing swaps that ignore communication.
//   - Random: a fixed random placement per run, no migrations.
//   - Oracle: a static placement computed from the full memory trace of the
//     run (internal/trace), as in the paper's simulator-based oracle.
//   - SPCD: the paper's mechanism — online detection from induced page
//     faults (internal/core), the communication filter and hierarchical
//     Edmonds mapping (internal/mapping), migrating threads as the pattern
//     emerges or changes.
//   - TLB: detection by comparing TLB contents (ref. [22]).
//   - HWC: estimation from remote-cache performance counters (ref. [7]).
//
// SPCD, TLB and HWC share one evaluate-and-migrate loop (detection): the
// filter, the mapping, the migration gates and the fault degradation are
// the same code, so the three differ only in how they detect.
package policy

import (
	"fmt"
	"math/bits"
	"math/rand"

	"spcd/internal/commmatrix"
	"spcd/internal/core"
	"spcd/internal/engine"
	"spcd/internal/hashtab"
	"spcd/internal/mapping"
	"spcd/internal/obs"
	"spcd/internal/topology"
	"spcd/internal/trace"
	"spcd/internal/vm"
)

// Scatter places threads breadth-first: slot 0 of each core first,
// alternating sockets, then slot 1 — the classic CPU-bound spread of a
// communication-blind scheduler. Neighbouring thread IDs land on different
// sockets, which is exactly what communication-based mapping fixes.
func Scatter(m *topology.Machine, n int) []int {
	order := make([]int, 0, m.NumContexts())
	for slot := 0; slot < m.ThreadsPerCore; slot++ {
		for core := 0; core < m.CoresPerSocket; core++ {
			for socket := 0; socket < m.Sockets; socket++ {
				order = append(order, m.ContextOf(socket, core, slot))
			}
		}
	}
	return order[:n]
}

// --- OS baseline ---

// OS is the baseline scheduler policy.
type OS struct {
	mach *topology.Machine
	n    int
	aff  []int // current placement; Init scatters when TunedFrom left it nil
	rng  *rand.Rand

	churnInterval uint64  // cycles between load-balance decisions
	churnProb     float64 // probability a decision swaps two threads
	nextChurn     uint64

	probe *obs.Probe // nil unless the run is observed
}

// NewOS creates the baseline policy.
func NewOS() *OS { return &OS{churnProb: 0.4} }

// Name implements engine.Policy.
func (p *OS) Name() string { return "os" }

// Init implements engine.Policy.
func (p *OS) Init(env *engine.Env) error {
	p.mach = env.Machine
	p.n = env.NumThreads
	if p.aff == nil {
		p.aff = Scatter(env.Machine, env.NumThreads)
	}
	p.rng = rand.New(rand.NewSource(env.Seed*31 + 7))
	if p.churnInterval == 0 {
		p.churnInterval = env.Machine.SecondsToCycles(0.050)
	}
	p.nextChurn = p.churnInterval
	return nil
}

// InitialAffinity implements engine.Policy.
func (p *OS) InitialAffinity() []int { return append([]int(nil), p.aff...) }

// SetProbe implements obs.Observer; the engine calls it before Init on
// observed runs.
func (p *OS) SetProbe(pr *obs.Probe) { p.probe = pr }

// Tick occasionally swaps two threads, modeling communication-blind load
// balancing churn.
func (p *OS) Tick(now uint64) []int {
	if now < p.nextChurn {
		return nil
	}
	p.nextChurn += p.churnInterval
	if p.rng.Float64() >= p.churnProb || p.n < 2 {
		return nil
	}
	i, j := p.rng.Intn(p.n), p.rng.Intn(p.n)
	if i == j {
		return nil
	}
	p.aff[i], p.aff[j] = p.aff[j], p.aff[i]
	if p.probe != nil {
		p.probe.Emit(now, "os", "churn", -1,
			obs.Uint("thread_a", uint64(i)), obs.Uint("thread_b", uint64(j)))
	}
	return append([]int(nil), p.aff...)
}

// Rebase replaces the placement the next swap starts from with aff, the
// placement actually applied (the serving layer's churn governor may admit
// only part of a proposal, or none of it).
func (p *OS) Rebase(aff []int) { copy(p.aff, aff) }

// Overheads implements engine.Policy; the baseline has none.
func (p *OS) Overheads() engine.Overheads { return engine.Overheads{} }

// FinalMatrix implements engine.Policy; the baseline detects nothing.
func (p *OS) FinalMatrix() *commmatrix.Matrix { return nil }

// --- Random ---

// Random places threads with a fixed random permutation per run.
type Random struct {
	aff []int
}

// NewRandom creates the random-mapping policy.
func NewRandom() *Random { return &Random{} }

// Name implements engine.Policy.
func (p *Random) Name() string { return "random" }

// Init implements engine.Policy.
func (p *Random) Init(env *engine.Env) error {
	rng := rand.New(rand.NewSource(env.Seed*131 + 17))
	perm := rng.Perm(env.Machine.NumContexts())
	p.aff = perm[:env.NumThreads]
	return nil
}

// InitialAffinity implements engine.Policy.
func (p *Random) InitialAffinity() []int { return append([]int(nil), p.aff...) }

// Tick implements engine.Policy; the random mapping never migrates.
func (p *Random) Tick(uint64) []int { return nil }

// Overheads implements engine.Policy.
func (p *Random) Overheads() engine.Overheads { return engine.Overheads{} }

// FinalMatrix implements engine.Policy.
func (p *Random) FinalMatrix() *commmatrix.Matrix { return nil }

// --- Oracle ---

// Oracle computes a static optimal-communication placement from the run's
// full memory trace before execution (§V-D "Oracle mapping"). Its analysis
// cost is offline and therefore not part of the run's overhead, exactly as
// in the paper.
type Oracle struct {
	aff    []int
	matrix *commmatrix.Matrix
}

// NewOracle creates the oracle policy.
func NewOracle() *Oracle { return &Oracle{} }

// Name implements engine.Policy.
func (p *Oracle) Name() string { return "oracle" }

// Init replays the workload's deterministic streams (same seed as the run)
// and maps threads with the same hierarchical algorithm SPCD uses.
func (p *Oracle) Init(env *engine.Env) error {
	p.matrix = trace.CommunicationMatrix(env.Workload, env.Seed, env.Machine.PageSize)
	aff, err := mapping.Compute(p.matrix, env.Machine, nil)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	p.aff = aff
	return nil
}

// InitialAffinity implements engine.Policy.
func (p *Oracle) InitialAffinity() []int { return append([]int(nil), p.aff...) }

// Tick implements engine.Policy; the oracle is static.
func (p *Oracle) Tick(uint64) []int { return nil }

// Overheads implements engine.Policy.
func (p *Oracle) Overheads() engine.Overheads { return engine.Overheads{} }

// FinalMatrix returns the ground-truth matrix the oracle derived.
func (p *Oracle) FinalMatrix() *commmatrix.Matrix { return p.matrix }

// --- SPCD ---

// SPCDOptions tunes the online policy beyond the paper defaults.
type SPCDOptions struct {
	// Config overrides the detector/sampler configuration; nil selects
	// core.DefaultConfig for the machine.
	Config *core.Config
	// EvalIntervalCycles is how often the communication matrix is
	// evaluated by the filter; 0 selects 50 ms.
	EvalIntervalCycles uint64
	// FirstEvalCycles is when the first evaluation runs; 0 selects
	// EvalIntervalCycles. An early first evaluation lets the initial
	// migration happen before most of the footprint is first-touched.
	FirstEvalCycles uint64
	// DecayFactor ages the matrix at every evaluation so the detected
	// pattern tracks the current phase; 0 selects 0.9, 1 disables aging.
	DecayFactor float64
	// Matcher selects the matching algorithm; nil selects Edmonds.
	Matcher mapping.Matcher
	// MoveCostCycles estimates the full cost of migrating one thread
	// (kernel work plus refilling its working set on the new core), used
	// by the cost/benefit migration gate. 0 selects 40,000 cycles;
	// negative disables the gate.
	MoveCostCycles float64
	// OnMigrate, if set, observes every applied migration: the simulated
	// time, the new affinity, and the matrix snapshot that produced it.
	OnMigrate func(now uint64, aff []int, matrix *commmatrix.Matrix)
	// OnEvaluate, if set, observes every periodic matrix evaluation with
	// a snapshot taken before aging, whether or not a migration follows.
	// It is how the producer/consumer phase matrices of Fig. 6 are
	// captured.
	OnEvaluate func(now uint64, matrix *commmatrix.Matrix)

	// DataMapping enables the extension the paper names but does not
	// evaluate (§IV: "the mechanisms can be used to perform data mapping
	// as well"): at every evaluation, regions whose faults are dominated
	// by one thread are migrated to that thread's NUMA node. It recovers
	// locality for data that serial initialization homed on one node.
	DataMapping bool

	// DataDominance is the fraction of a region's faults one thread must
	// account for to pull the region's pages (0 selects 0.7).
	DataDominance float64

	// PageMigrationCostCycles models the kernel cost of moving one page
	// (copy + remap bookkeeping); 0 selects 6000 cycles (~3 us). The TLB
	// shootdown each remap triggers is priced separately by the machine's
	// translation-coherence model (topology.ShootdownMode) and folded into
	// the same mapping-overhead accounting when a mode is armed.
	PageMigrationCostCycles uint64

	// InitialPlacement, when non-nil, is the thread -> context placement
	// the policy starts from instead of the OS scatter. The scenario layer
	// (internal/scenario) uses it so a mid-life tenant mix resumes from its
	// current serving placement rather than restarting from scratch every
	// interval.
	InitialPlacement []int
}

// SPCD is the paper's mechanism as an engine policy: the shared detection
// loop driven by induced page faults.
type SPCD struct {
	detection
	opts SPCDOptions

	detector *core.Detector
	sampler  *core.Sampler
	cleared  int // pages the last sampler batch cleared

	lastEvents      uint64
	lowEvals        int
	configuredFloor int

	dataMigrations  uint64
	dataMigCycles   uint64
	pagesPerRegion  uint64
	regionPageShift uint

	// Fault-degradation state for the data-mapping extension: page
	// migrations that failed transiently wait here for a bounded number of
	// backoff retries (see migrateData).
	pageRetries     []pageRetry
	pageRetryDrops  uint64
	samplerSaturate uint64
}

// pageRetry is one page migration awaiting a backoff retry after a
// transient failure.
type pageRetry struct {
	vpn       uint64
	node      int
	attempts  int
	notBefore uint64
}

// maxPageRetries bounds how often one failed page migration is retried
// before it is dropped (counted, and re-proposable at a later evaluation if
// the region still qualifies).
const maxPageRetries = 3

// NewSPCD creates the SPCD policy with the given options (zero value =
// paper defaults).
func NewSPCD(opts SPCDOptions) *SPCD {
	p := &SPCD{opts: opts}
	p.detection = detection{name: "spcd", src: p,
		evalEvery: opts.EvalIntervalCycles, firstEval: opts.FirstEvalCycles,
		matcher: opts.Matcher, moveCost: opts.MoveCostCycles, initial: opts.InitialPlacement}
	return p
}

// init registers the detector in the simulated fault handler and starts
// the sampler kernel thread.
func (p *SPCD) init(env *engine.Env) error {
	cfg := core.DefaultConfig(env.Machine, env.NumThreads)
	if p.opts.Config != nil {
		cfg = *p.opts.Config
	}
	det, err := core.NewDetector(cfg)
	if err != nil {
		return err
	}
	smp, err := core.NewSampler(cfg, env.AS, env.Seed*1009+3)
	if err != nil {
		return err
	}
	p.detector = det
	p.sampler = smp
	env.AS.AddHandler(det.HandleFault)
	p.configuredFloor = cfg.MinBatch
	p.pagesPerRegion = uint64(max(cfg.Granularity/env.Machine.PageSize, 1))
	p.regionPageShift = uint(bits.TrailingZeros(uint(env.Machine.PageSize))) // a power of two
	return nil
}

// SetProbe implements obs.Observer; the engine calls it before Init on
// observed runs. Detector and sampler counters are registered through
// closures that the registry reads at snapshot time, after Init has built
// them (a probe snapshotted before Init, which only happens in tests, reads
// zeros).
func (p *SPCD) SetProbe(pr *obs.Probe) {
	p.probe = pr
	if pr == nil {
		return
	}
	reg := pr.Registry()
	reg.CounterFunc("spcd.faults_seen", func() uint64 { return p.detectorStats().FaultsSeen })
	reg.CounterFunc("spcd.comm_events", func() uint64 { return p.detectorStats().CommEvents })
	reg.CounterFunc("spcd.detection_cycles", func() uint64 { return p.detectorStats().DetectionCycles })
	reg.CounterFunc("spcd.sampler_wakeups", func() uint64 { return p.samplerStats().Wakeups })
	reg.CounterFunc("spcd.pages_cleared", func() uint64 { return p.samplerStats().PagesCleared })
	reg.CounterFunc("spcd.page_migrations", func() uint64 { return p.dataMigrations })
}

// detectorStats and samplerStats read zeros until Init builds the
// components.
func (p *SPCD) detectorStats() (s core.DetectorStats) {
	if p.detector != nil {
		s = p.detector.Stats()
	}
	return s
}

func (p *SPCD) samplerStats() (s core.SamplerStats) {
	if p.sampler != nil {
		s = p.sampler.Stats()
	}
	return s
}

// sample runs the sampler on its own schedule.
func (p *SPCD) sample(now uint64) bool {
	p.cleared = p.sampler.MaybeRun(now)
	if p.cleared == 0 {
		return false
	}
	if p.probe != nil {
		p.probe.Emit(now, "spcd", "sampler.batch", -1,
			obs.Uint("pages_cleared", uint64(p.cleared)))
	}
	return true
}

// saturate halves the detection counters: the paper's aging operation
// (§III-B3) applied as overflow handling.
func (p *SPCD) saturate(now uint64) {
	p.detector.Saturate()
	p.samplerSaturate++
	if p.probe != nil {
		p.probe.Emit(now, "spcd", "sampler.saturate", -1,
			obs.Uint("pages_cleared", uint64(p.cleared)))
	}
}

// evaluate runs the data-mapping extension, snapshots and ages the
// detector, and skips the filter and the mapping algorithm unless enough
// new communication arrived to possibly change the outcome.
func (p *SPCD) evaluate(now uint64) *commmatrix.Matrix {
	if p.opts.DataMapping {
		// Page placement relies on per-region fault counts, not on
		// communication events, so it runs on every evaluation tick.
		p.migrateData(now)
	}
	matrix := p.detector.Snapshot()
	if p.opts.OnEvaluate != nil {
		p.opts.OnEvaluate(now, matrix)
	}
	if p.probe != nil {
		p.probe.Emit(now, "spcd", "evaluate", -1,
			obs.Uint("comm_events", p.detector.Stats().CommEvents),
			obs.Float("matrix_total", matrix.Total()),
			obs.Float("heterogeneity", matrix.Heterogeneity()))
	}
	decay := p.opts.DecayFactor
	if decay == 0 {
		decay = 0.9
	}
	p.detector.Decay(decay)

	// Event gate: kernels with little communication (CG, EP) do not pay
	// filter + matching costs for evaluations that carry fewer than two new
	// communication events per thread.
	if !p.pending() {
		events := p.detector.Stats().CommEvents
		fresh := events - p.lastEvents
		if fresh < uint64(2*p.n) {
			// Feedback control of the sampling effort: once a pattern
			// has been established (at least one productive evaluation),
			// repeated unproductive evaluations mean the application has
			// little communication left to reveal — shrink the sampler's
			// floor so it is not taxed for information that is not
			// there. During cold start (no productive evaluation yet)
			// the floor stays, because detection is still warming up.
			if p.lastEvents > 0 {
				p.lowEvals++
				if p.lowEvals >= 2 {
					if half := p.sampler.MinBatch() / 2; half >= 2 {
						p.sampler.SetMinBatch(half)
					}
				}
			}
			return nil
		}
		p.lowEvals = 0
		p.sampler.SetMinBatch(p.configuredFloor)
		p.lastEvents = events
	}
	return matrix
}

// units counts induced faults: each samples roughly one access point, so
// one detected event stands for about (accesses / induced faults) real
// co-accesses.
func (p *SPCD) units(*commmatrix.Matrix) float64 {
	return float64(p.env.AS.Stats().InducedFaults)
}

func (p *SPCD) remapped(now uint64, aff []int, matrix *commmatrix.Matrix) {
	if p.opts.OnMigrate != nil {
		//lint:ignore determinism-flow OnMigrate is a user-supplied notification hook; it observes remaps after the decision is made and cannot alter policy state.
		p.opts.OnMigrate(now, append([]int(nil), aff...), matrix)
	}
	if p.probe != nil {
		p.probe.Emit(now, "spcd", "remap", -1,
			obs.Float("heterogeneity", matrix.Heterogeneity()))
	}
}

// migrateData implements the data-mapping extension: regions whose faults
// are dominated by one thread move to that thread's current NUMA node.
// Under fault injection a migration can fail transiently (move_pages under
// memory pressure) or because the target node is at capacity; transient
// failures are retried up to maxPageRetries times with doubling
// virtual-time backoff, capacity failures follow the same bounded schedule
// (pages leaving the node can clear them), and exhausted retries are
// dropped and counted. Degradation is summarized as one obs event per
// evaluation that saw failures.
func (p *SPCD) migrateData(now uint64) {
	dominance := p.opts.DataDominance
	if dominance == 0 {
		dominance = 0.7
	}
	pageCost := p.opts.PageMigrationCostCycles
	if pageCost == 0 {
		pageCost = 6000
	}
	var failed, dropped, retried uint64
	backoffBase := max(p.evalInterval/4, 1)
	// Remap shootdowns (when a mode is armed) are part of what a migration
	// costs this policy: the initiator-stall delta across this evaluation is
	// folded into dataMigCycles below, so mapping overhead and the fallback
	// watchdog both see the honest price of remapping.
	sdBefore := p.env.AS.ShootdownStats().RemapInitCycles

	// Drain due retries first, in enqueue order (deterministic).
	keep := p.pageRetries[:0]
	for _, r := range p.pageRetries {
		if now < r.notBefore {
			keep = append(keep, r)
			continue
		}
		switch p.env.AS.TryMigratePageAt(r.vpn, r.node, now) {
		case vm.MigrateOK:
			p.dataMigrations++
			p.dataMigCycles += pageCost
			retried++
		case vm.MigrateNoop:
			// The page already moved (or its target changed); nothing owed.
		default: // transient or capacity failure
			r.attempts++
			if r.attempts > maxPageRetries {
				dropped++
				p.pageRetryDrops++
			} else {
				r.notBefore = now + backoffBase<<uint(r.attempts-1)
				keep = append(keep, r)
				failed++
			}
		}
	}
	p.pageRetries = keep

	granShift := p.detector.GranularityShift()
	p.detector.ForEachRegion(func(region uint64, sharers []hashtab.Sharer) {
		var total, best uint32
		owner := -1
		for _, s := range sharers {
			total += s.Count
			if s.Count > best {
				best = s.Count
				owner = s.Thread
			}
		}
		if owner < 0 || total < 3 || float64(best) < dominance*float64(total) {
			return
		}
		node := p.mach.NodeOf(p.aff[owner])
		firstPage := (region << granShift) >> p.regionPageShift
		for i := uint64(0); i < p.pagesPerRegion; i++ {
			switch p.env.AS.TryMigratePageAt(firstPage+i, node, now) {
			case vm.MigrateOK:
				p.dataMigrations++
				p.dataMigCycles += pageCost
			case vm.MigrateNoop:
				// Unmapped or already local: nothing to do.
			default: // transient or capacity failure: schedule a retry
				failed++
				p.pageRetries = append(p.pageRetries, pageRetry{
					vpn: firstPage + i, node: node,
					attempts: 1, notBefore: now + backoffBase,
				})
			}
		}
	})
	p.dataMigCycles += p.env.AS.ShootdownStats().RemapInitCycles - sdBefore
	if p.probe != nil && (failed > 0 || dropped > 0) {
		p.probe.Emit(now, "spcd", "data.migrate.degraded", -1,
			obs.Uint("failed", failed), obs.Uint("retried_ok", retried),
			obs.Uint("dropped", dropped), obs.Uint("pending", uint64(len(p.pageRetries))))
	}
}

// DataMigrations returns how many pages the data-mapping extension moved.
func (p *SPCD) DataMigrations() uint64 { return p.dataMigrations }

// PageRetryDrops returns how many failed page migrations exhausted their
// retry budget under fault injection.
func (p *SPCD) PageRetryDrops() uint64 { return p.pageRetryDrops }

// SamplerSaturations returns how many injected counter overflows the
// sampler absorbed (each answered by halving the detection counters).
func (p *SPCD) SamplerSaturations() uint64 { return p.samplerSaturate }

// Overheads reports the modeled detection and mapping cost (§V-F). Page
// migration work of the data-mapping extension counts as mapping overhead.
func (p *SPCD) Overheads() engine.Overheads {
	return engine.Overheads{
		DetectionCycles: p.detector.Stats().DetectionCycles + p.sampler.Stats().SamplerCycles,
		MappingCycles:   p.mapper.MappingCycles() + p.dataMigCycles,
	}
}

// FinalMatrix returns the detected communication matrix.
func (p *SPCD) FinalMatrix() *commmatrix.Matrix { return p.detector.Snapshot() }

// Detector exposes the detector (for pattern visualization and stats).
func (p *SPCD) Detector() *core.Detector { return p.detector }

// Sampler exposes the sampler (for stats).
func (p *SPCD) Sampler() *core.Sampler { return p.sampler }

// Mapper exposes the mapper (for stats).
func (p *SPCD) Mapper() *mapping.Mapper { return p.mapper }

// Names lists the policies the paper evaluates, in its presentation order.
// The TLB and HWC comparators ("tlb", "hwc"; §VI-B) are built by Tuned like
// the others but are not part of the paper's four-way comparison.
var Names = []string{"os", "random", "oracle", "spcd"}
