// Package faultinject is the deterministic fault-injection layer of the
// simulator (DESIGN.md §11). The paper's mechanism assumes the kernel side
// always cooperates — page faults are always observed, page migrations
// always succeed, sampler counters never saturate. On a loaded production
// machine none of that holds, so the simulator can arm a fault Plan that
// perturbs the run at a fixed registry of named Sites threaded through
// internal/vm, internal/policy and internal/engine.
//
// Determinism contract: an Injector draws every fault decision from
// per-site rand streams seeded purely by (Plan.Seed, run seed, site name).
// Nothing about scheduling, worker count or wall time feeds the streams, so
// same-seed runs inject byte-identical fault sequences — the same argument
// that makes the sweep runner deterministic (DESIGN.md §10) extends to
// chaos runs. A site that is disabled (rate zero) never consumes a draw,
// so enabling one site cannot shift another site's stream.
//
// The nil *Injector is a fully functional no-op (every method is nil-safe),
// mirroring the nil-probe pattern of internal/obs: fault-free runs pay one
// pointer comparison per site and stay byte-identical to a build without
// this package.
package faultinject

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"spcd/internal/obs"
)

// Site names one injection point in the simulator. Sites are a closed
// registry: every Site in the codebase must be one of the package-level
// constants below and be listed in Sites (enforced by the faultsite
// spcdlint rule — no stringly-typed ad-hoc sites).
type Site string

// The site registry. Each constant names the layer and the failure it
// models; Plan carries one rate (or factor) per site.
const (
	// SiteVMFaultDrop drops a page-fault notification before the handler
	// chain runs: the SPCD detector misses the communication sample, as
	// when the real kernel's hook is bypassed under load.
	SiteVMFaultDrop Site = "vm.fault.drop"
	// SiteVMFaultDup delivers a page-fault notification twice, modeling a
	// retried fault path double-counting one access.
	SiteVMFaultDup Site = "vm.fault.dup"
	// SiteVMMigrateFail fails a page migration transiently, as
	// move_pages(2) does under memory pressure (-EAGAIN / -ENOMEM).
	SiteVMMigrateFail Site = "vm.migrate.fail"
	// SiteVMNodeCapacity rejects page migrations to a NUMA node whose page
	// count already exceeds its share, modeling per-node free-memory
	// exhaustion (a persistent, state-dependent failure — no RNG draw).
	SiteVMNodeCapacity Site = "vm.node.capacity"
	// SitePolicySamplerSaturate overflows the detection counters after a
	// sampler batch; the policy responds by halving them (§III-B3 aging).
	SitePolicySamplerSaturate Site = "policy.sampler.saturate"
	// SitePolicyRemapDelay defers the application of a computed thread
	// remapping, as when the scheduler's migration queue is backed up.
	SitePolicyRemapDelay Site = "policy.remap.delay"
	// SiteEngineThreadStall charges a thread a burst of stall cycles at a
	// scheduling slice, modeling preemption by unrelated system load.
	SiteEngineThreadStall Site = "engine.thread.stall"
	// SiteVMShootdownDelay stretches one TLB shootdown's initiator stall, as
	// when a target core has interrupts disabled and the wait-for-acks phase
	// spins until it re-enables them. Only consulted when a shootdown mode
	// is armed, so plans with this rate set leave mode-none runs untouched.
	SiteVMShootdownDelay Site = "vm.shootdown.delay"
	// SiteScenarioAdmitFail rejects a tenant's arrival at admission control
	// in the multi-tenant scenario layer (internal/scenario), as when a real
	// cluster scheduler bounces a job under transient resource pressure. The
	// scenario retries the tenant with doubling backoff — an arrival is
	// deferred, never silently dropped.
	SiteScenarioAdmitFail Site = "scenario.admit.fail"
)

// Sites is the package-level site registry, in declaration order. The
// faultsite spcdlint rule requires every Site constant to appear here, and
// per-site injector state (streams, counters) is indexed by position.
var Sites = []Site{
	SiteVMFaultDrop,
	SiteVMFaultDup,
	SiteVMMigrateFail,
	SiteVMNodeCapacity,
	SitePolicySamplerSaturate,
	SitePolicyRemapDelay,
	SiteEngineThreadStall,
	SiteVMShootdownDelay,
	SiteScenarioAdmitFail,
}

// siteIdx maps a Site to its position in Sites; built once at init.
var siteIdx = func() map[Site]int {
	m := make(map[Site]int, len(Sites))
	for i, s := range Sites {
		m[s] = i
	}
	return m
}()

// Plan is a pure-value description of what to inject. Rates are per-event
// probabilities in [0,1] (a rate of exactly 1 fires unconditionally without
// consuming a draw); zero disables the site. The zero Plan injects nothing.
type Plan struct {
	// Seed salts every per-site stream together with the run seed, so two
	// plans with identical rates but different seeds inject different
	// (but individually reproducible) fault sequences.
	Seed int64
	// Intensity records the knob DefaultPlan scaled the rates by. It is
	// descriptive — queries read the per-site rates, never this field —
	// but it participates in the digest so plans stay distinguishable.
	Intensity float64

	// FaultDropRate is the probability a page-fault notification is lost
	// (SiteVMFaultDrop).
	FaultDropRate float64
	// FaultDupRate is the probability a notification is delivered twice
	// (SiteVMFaultDup).
	FaultDupRate float64
	// MigrateFailRate is the probability a page migration fails
	// transiently (SiteVMMigrateFail).
	MigrateFailRate float64
	// NodeCapacityFactor caps each node's page count at factor × (mapped
	// pages / nodes); migrations into a node at its cap fail
	// (SiteVMNodeCapacity). Zero disables the cap; values ≤ 1 model a
	// machine with no headroom at all.
	NodeCapacityFactor float64
	// SamplerSaturateRate is the probability a sampler batch overflows
	// the detection counters (SitePolicySamplerSaturate).
	SamplerSaturateRate float64
	// RemapDelayRate is the probability applying a computed thread
	// remapping is deferred (SitePolicyRemapDelay).
	RemapDelayRate float64
	// StallRate is the per-scheduling-slice probability a thread is
	// preempted (SiteEngineThreadStall). The injector clamps it below 1
	// so a stalled thread always eventually runs.
	StallRate float64
	// StallBurstCycles is the nominal preemption length; each stall draws
	// a burst in [0.5, 1.5) × this value.
	StallBurstCycles uint64
	// ShootdownDelayRate is the probability one TLB shootdown's initiator
	// stall is stretched by ShootdownDelayCycles (SiteVMShootdownDelay).
	// The site is consulted only when the machine arms a shootdown mode,
	// so a nonzero rate cannot perturb mode-none runs.
	ShootdownDelayRate float64
	// ShootdownDelayCycles is the extra initiator stall charged when the
	// delay fires.
	ShootdownDelayCycles uint64
	// AdmitFailRate is the probability a tenant arrival is rejected at
	// admission control (SiteScenarioAdmitFail). Only the scenario layer
	// consults it, so batch runs are untouched by a nonzero rate.
	AdmitFailRate float64
}

// DefaultPlan returns the canonical fault mix scaled by intensity in [0,1]
// (clamped). Intensity 0 yields an inactive plan; intensity 1 is the
// harshest point of the chaos-sweep axis. The rates keep every failure mode
// sub-dominant so graceful degradation — not total loss of the mechanism —
// is what gets exercised.
func DefaultPlan(seed int64, intensity float64) Plan {
	if intensity < 0 {
		intensity = 0
	}
	if intensity > 1 {
		intensity = 1
	}
	p := Plan{
		Seed:                 seed,
		Intensity:            intensity,
		FaultDropRate:        0.10 * intensity,
		FaultDupRate:         0.05 * intensity,
		MigrateFailRate:      0.30 * intensity,
		SamplerSaturateRate:  0.20 * intensity,
		RemapDelayRate:       0.25 * intensity,
		StallRate:            0.002 * intensity,
		StallBurstCycles:     20_000,
		ShootdownDelayRate:   0.15 * intensity,
		ShootdownDelayCycles: 10_000,
		AdmitFailRate:        0.25 * intensity,
	}
	if intensity > 0 {
		// Tighter capacity headroom at higher intensity: 2× the even
		// share at the mild end, 1.25× at the harsh end.
		p.NodeCapacityFactor = 2.0 - 0.75*intensity
	}
	return p
}

// CanonicalPlan is the fixed mid-intensity plan CI and the acceptance tests
// run: harsh enough that every degradation path fires, mild enough that
// SPCD's bounded-retry/fallback machinery keeps it at or below the OS
// baseline.
func CanonicalPlan(seed int64) Plan { return DefaultPlan(seed, 0.5) }

// Active reports whether the plan can inject anything.
func (p Plan) Active() bool {
	return p.FaultDropRate > 0 || p.FaultDupRate > 0 || p.MigrateFailRate > 0 ||
		p.NodeCapacityFactor > 0 || p.SamplerSaturateRate > 0 ||
		p.RemapDelayRate > 0 || p.StallRate > 0 || p.ShootdownDelayRate > 0 ||
		p.AdmitFailRate > 0
}

// Validate returns an error naming the first field that makes the plan
// meaningless: Intensity or a rate outside [0, 1], or a NodeCapacityFactor
// that is negative or not finite. NaN fails every check. Unchecked, a NaN
// rate fires its site on every event without a draw (both of Hit's
// comparisons are false for NaN), and a NaN capacity factor rejects every
// migration. Every entry point that accepts a plan calls it.
func (p Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Intensity", p.Intensity},
		{"FaultDropRate", p.FaultDropRate},
		{"FaultDupRate", p.FaultDupRate},
		{"MigrateFailRate", p.MigrateFailRate},
		{"SamplerSaturateRate", p.SamplerSaturateRate},
		{"RemapDelayRate", p.RemapDelayRate},
		{"StallRate", p.StallRate},
		{"ShootdownDelayRate", p.ShootdownDelayRate},
		{"AdmitFailRate", p.AdmitFailRate},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("faultinject: plan %s = %g, want a value in [0, 1]", f.name, f.v)
		}
	}
	if !(p.NodeCapacityFactor >= 0) || math.IsInf(p.NodeCapacityFactor, 1) {
		return fmt.Errorf("faultinject: plan NodeCapacityFactor = %g, want a finite value >= 0", p.NodeCapacityFactor)
	}
	return nil
}

// rate returns the plan's probability for site s (capacity is not a rate
// and reports 0 here; it is queried via NodeOverCapacity).
func (p Plan) rate(s Site) float64 {
	switch s {
	case SiteVMFaultDrop:
		return p.FaultDropRate
	case SiteVMFaultDup:
		return p.FaultDupRate
	case SiteVMMigrateFail:
		return p.MigrateFailRate
	case SitePolicySamplerSaturate:
		return p.SamplerSaturateRate
	case SitePolicyRemapDelay:
		return p.RemapDelayRate
	case SiteVMShootdownDelay:
		return p.ShootdownDelayRate
	case SiteScenarioAdmitFail:
		return p.AdmitFailRate
	case SiteEngineThreadStall:
		// A thread stalled on every slice would never retire an access;
		// clamp so forward progress is guaranteed under any plan.
		if p.StallRate > 0.95 {
			return 0.95
		}
		return p.StallRate
	}
	return 0
}

// Digest returns a short stable identifier of the plan: an FNV-1a hash of
// its canonical field encoding, rendered as 16 hex digits. Two plans digest
// equal iff every field is equal, so sweep reports and PanicError records
// pin exactly which fault mix a run executed under.
func (p Plan) Digest() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	canon := "fp1|" + strconv.FormatInt(p.Seed, 10) +
		"|" + g(p.Intensity) +
		"|" + g(p.FaultDropRate) +
		"|" + g(p.FaultDupRate) +
		"|" + g(p.MigrateFailRate) +
		"|" + g(p.NodeCapacityFactor) +
		"|" + g(p.SamplerSaturateRate) +
		"|" + g(p.RemapDelayRate) +
		"|" + g(p.StallRate) +
		"|" + strconv.FormatUint(p.StallBurstCycles, 10) +
		"|" + g(p.ShootdownDelayRate) +
		"|" + strconv.FormatUint(p.ShootdownDelayCycles, 10) +
		"|" + g(p.AdmitFailRate)
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(canon); i++ {
		h ^= uint64(canon[i])
		h *= prime64
	}
	return fmt.Sprintf("%016x", h)
}

// SiteCount is one row of an injector's tally: how often a site fired.
type SiteCount struct {
	Site  Site
	Count uint64
}

// Injector draws fault decisions for one run. It is not safe for concurrent
// use — like the engine it serves, one injector belongs to one
// single-threaded simulation. The nil injector is a no-op.
type Injector struct {
	plan    Plan
	runSeed int64
	rngs    []*rand.Rand
	counts  []uint64
	// stallCycles totals the injected stall burst lengths (the count of
	// bursts lives in counts[SiteEngineThreadStall]).
	stallCycles uint64
}

// NewInjector builds the injector for one run. It returns nil — the no-op
// injector — when the plan is inactive, so fault-free runs take the exact
// code paths they took before this package existed.
func NewInjector(plan Plan, runSeed int64) *Injector {
	if !plan.Active() {
		return nil
	}
	in := &Injector{
		plan:    plan,
		runSeed: runSeed,
		rngs:    make([]*rand.Rand, len(Sites)),
		counts:  make([]uint64, len(Sites)),
	}
	for i, s := range Sites {
		in.rngs[i] = rand.New(rand.NewSource(siteSeed(plan.Seed, runSeed, s)))
	}
	return in
}

// siteSeed mixes (planSeed, runSeed, site) into one stream seed: FNV-1a
// over the site name with both seeds folded through golden-ratio multiplies
// and a splitmix64 finalizer — the same derivation shape as
// sweep.DeriveSeed, so nearby seeds land on well-separated streams.
func siteSeed(planSeed, runSeed int64, site Site) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= prime64
	}
	z := h ^ (uint64(planSeed) * 0x9E3779B97F4A7C15)
	z ^= uint64(runSeed) * 0xD1B54A32D192ED03
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Plan returns the armed plan (the zero Plan on the nil injector).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Hit draws one fault decision at site s and reports whether the fault
// fires, counting it if so. A zero-rate site returns false without
// consuming a draw (so disabled sites never perturb streams); a rate ≥ 1
// fires without a draw. Unknown sites panic: the faultsite lint rule keeps
// every call site on the registry, so reaching the panic means the registry
// and a caller diverged at compile time.
func (in *Injector) Hit(s Site) bool {
	if in == nil {
		return false
	}
	i, ok := siteIdx[s]
	if !ok {
		panic(fmt.Sprintf("faultinject: site %q is not in the Sites registry", s))
	}
	r := in.plan.rate(s)
	if r <= 0 {
		return false
	}
	if r < 1 && in.rngs[i].Float64() >= r {
		return false
	}
	in.counts[i]++
	return true
}

// StallCycles draws one thread-stall decision (SiteEngineThreadStall) and
// returns the burst length to charge, or 0 when the thread runs
// undisturbed. Bursts vary uniformly in [0.5, 1.5) × StallBurstCycles so
// stalls do not beat against periodic policy activity.
func (in *Injector) StallCycles() uint64 {
	if in == nil || !in.Hit(SiteEngineThreadStall) {
		return 0
	}
	burst := in.plan.StallBurstCycles
	if burst == 0 {
		burst = 20_000
	}
	i := siteIdx[SiteEngineThreadStall]
	burst = burst/2 + uint64(in.rngs[i].Int63n(int64(burst)))
	in.stallCycles += burst
	return burst
}

// NodeOverCapacity reports whether a migration into a node already holding
// nodePages pages (of mapped total across nodes) would exceed the plan's
// capacity cap, counting the rejection if so. The check is a pure function
// of VM state — no RNG draw — because exhausted memory is persistent, not
// transient: retrying without pages leaving the node fails again.
func (in *Injector) NodeOverCapacity(nodePages uint64, mapped, nodes int) bool {
	if in == nil || in.plan.NodeCapacityFactor <= 0 || mapped == 0 || nodes <= 0 {
		return false
	}
	limit := in.plan.NodeCapacityFactor * float64(mapped) / float64(nodes)
	if float64(nodePages)+1 <= limit {
		return false
	}
	in.counts[siteIdx[SiteVMNodeCapacity]]++
	return true
}

// Count returns how often site s fired (0 on the nil injector).
func (in *Injector) Count(s Site) uint64 {
	if in == nil {
		return 0
	}
	return in.counts[siteIdx[s]]
}

// TotalStallCycles returns the summed injected stall burst lengths.
func (in *Injector) TotalStallCycles() uint64 {
	if in == nil {
		return 0
	}
	return in.stallCycles
}

// SiteCounts returns the full tally in registry order (nil on the nil
// injector). The order is fixed, so rendering the tally is deterministic.
func (in *Injector) SiteCounts() []SiteCount {
	if in == nil {
		return nil
	}
	out := make([]SiteCount, len(Sites))
	for i, s := range Sites {
		out[i] = SiteCount{Site: s, Count: in.counts[i]}
	}
	return out
}

// RegisterObs publishes the per-site fire counters as registry columns
// ("faultinject." + site name), read at snapshot time like every other
// subsystem counter. Safe on the nil injector and the nil probe.
func (in *Injector) RegisterObs(p *obs.Probe) {
	if in == nil || p == nil {
		return
	}
	reg := p.Registry()
	for i, s := range Sites {
		i := i
		reg.CounterFunc("faultinject."+string(s), func() uint64 { return in.counts[i] })
	}
	reg.CounterFunc("faultinject.stall_cycles", func() uint64 { return in.stallCycles })
}
