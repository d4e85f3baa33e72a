package policy

import (
	"spcd/internal/commmatrix"
	"spcd/internal/engine"
	"spcd/internal/faultinject"
	"spcd/internal/mapping"
	"spcd/internal/obs"
	"spcd/internal/topology"
)

const (
	// remapFailureBudget is how many consecutive remap-application failures
	// the watchdog tolerates before the policy falls back to its initial
	// placement. A single success resets the count, so only a persistently
	// failing migration path trips it.
	remapFailureBudget = 6
	// minImprovement is the fractional communication-cost reduction a new
	// mapping must deliver, relative to keeping the current placement, to
	// justify migrating. It suppresses churn from detection noise that
	// slips past the communication filter.
	minImprovement = 0.05
	// defaultMoveCost is the default estimated cost in cycles of migrating
	// one thread (kernel work plus refilling its working set on the new
	// core), used by the cost/benefit gate.
	defaultMoveCost = 40_000
	// estimateDecay ages the comparators' estimated matrices at every
	// evaluation, the default aging SPCD applies to its detector.
	estimateDecay = 0.9
)

// source is what a detection policy contributes to the shared loop: how it
// builds its communication matrix and how much one matrix unit is worth.
type source interface {
	// init builds the detection mechanism; the loop's own state is ready.
	init(env *engine.Env) error
	// sample runs the detection step due at now, if any, and reports
	// whether one ran. Each step that ran is followed by a saturation draw.
	sample(now uint64) bool
	// saturate answers an injected counter overflow after a sample.
	saturate(now uint64)
	// evaluate returns the matrix to evaluate at now and ages the
	// mechanism's state, or returns nil to skip this evaluation.
	evaluate(now uint64) *commmatrix.Matrix
	// units returns the detection units observed so far: one unit of
	// matrix cost stands for (remaining accesses / units) real co-accesses.
	// Zero disables the cost/benefit gate.
	units(matrix *commmatrix.Matrix) float64
	// remapped observes an applied migration.
	remapped(now uint64, aff []int, matrix *commmatrix.Matrix)
}

// detection is the evaluate-and-migrate loop SPCD and the TLB/HWC
// comparators share, so the three differ only in how they detect. It owns
// the evaluation schedule, the communication filter and hierarchical
// mapping (via mapping.Mapper), cost-preserving alignment, the
// relative-improvement check with escalating hysteresis, and the absolute
// cost/benefit gate.
//
// Under fault injection it also owns the degradation machinery. After each
// detection sample it draws SitePolicySamplerSaturate. A computed placement
// whose application fails (SitePolicyRemapDelay) is retried with doubling
// virtual-time backoff, and a watchdog falls back to the initial placement
// for good, emitted as the policy.fallback event, once consecutive failures
// reach remapFailureBudget. Every degradation decision is an obs event.
type detection struct {
	name      string
	src       source
	evalEvery uint64          // option; 0 selects 50 ms
	firstEval uint64          // option; 0 selects evalEvery
	matcher   mapping.Matcher // option; nil selects Edmonds
	moveCost  float64         // option; 0 selects defaultMoveCost, negative disables
	initial   []int           // option until Init; nil selects the OS scatter

	env    *engine.Env
	mach   *topology.Machine
	n      int
	mapper *mapping.Mapper
	inj    *faultinject.Injector
	probe  *obs.Probe // nil unless the run is observed

	evalInterval uint64
	nextEval     uint64
	aff          []int
	hysteresis   float64

	backoffBase uint64
	backoff     uint64
	pendingAff  []int
	pendingAt   uint64
	failures    int
	fellBack    bool
}

// Name implements engine.Policy.
func (d *detection) Name() string { return d.name }

// SetProbe implements obs.Observer; the engine calls it before Init on
// observed runs.
func (d *detection) SetProbe(pr *obs.Probe) { d.probe = pr }

// Init implements engine.Policy: it builds the mapper and the initial
// placement, resolves the evaluation schedule, then the detection mechanism.
func (d *detection) Init(env *engine.Env) error {
	mp, err := mapping.NewMapper(env.Machine, env.NumThreads, d.matcher)
	if err != nil {
		return err
	}
	d.env, d.mach, d.n, d.mapper, d.inj = env, env.Machine, env.NumThreads, mp, env.Injector
	if d.initial == nil {
		d.initial = Scatter(env.Machine, env.NumThreads)
	}
	d.initial = append([]int(nil), d.initial...)
	d.aff = append([]int(nil), d.initial...)
	d.hysteresis = 1
	if d.moveCost == 0 {
		d.moveCost = defaultMoveCost
	}
	d.evalInterval = d.evalEvery
	if d.evalInterval == 0 {
		d.evalInterval = env.Machine.SecondsToCycles(0.050)
	}
	d.nextEval = d.firstEval
	if d.nextEval == 0 {
		d.nextEval = d.evalInterval
	}
	// Delayed remaps retry on a schedule that starts well inside one
	// evaluation period (retries quantize to evaluation times) so the
	// watchdog budget is reachable within a run.
	d.backoffBase = max(d.evalInterval/8, 1)
	return d.src.init(env)
}

// InitialAffinity implements engine.Policy: detection starts from the
// initial placement and improves it online.
func (d *detection) InitialAffinity() []int { return append([]int(nil), d.aff...) }

// FellBack reports whether the remap watchdog abandoned the mechanism and
// reverted to the initial placement for the rest of the run.
func (d *detection) FellBack() bool { return d.fellBack }

// pending reports whether a delayed remap is waiting to be retried. Activity
// gates use it: the decision to remap was already made, so its retries must
// not depend on fresh detection events arriving.
func (d *detection) pending() bool { return d.pendingAff != nil }

// Tick implements engine.Policy: it runs the mechanism's detection step,
// then on the evaluation schedule evaluates the matrix and migrates when
// the gates admit it.
func (d *detection) Tick(now uint64) []int {
	if d.fellBack {
		// Watchdog fallback: no detection, evaluation or data mapping for
		// the rest of the run, which finishes on the initial placement.
		return nil
	}
	// Injected counter saturation after a sample: the mechanism halves its
	// counts (aging as overflow handling), so relative magnitudes survive
	// and the mapping still sees the dominant pattern.
	if d.src.sample(now) && d.inj.Hit(faultinject.SitePolicySamplerSaturate) {
		d.src.saturate(now)
	}
	if now < d.nextEval {
		return nil
	}
	d.nextEval += d.evalInterval
	matrix := d.src.evaluate(now)
	if matrix == nil {
		return nil
	}
	// Project the cost delta over the accesses still to run: one matrix
	// unit stands for (remaining accesses / units) real co-accesses, which
	// converts the delta into expected cycles saved (the benefit gate).
	scale := 0.0
	if units := d.src.units(matrix); units > 0 {
		st := d.env.AS.Stats()
		total := float64(d.env.Workload.AccessesPerThread()) * float64(d.n)
		remaining := total - float64(st.Accesses)
		if remaining > 0 {
			scale = remaining / units
		}
	}
	aff, err := d.consider(now, matrix, scale)
	if err != nil {
		// Tick cannot propagate errors; a mapper failure is surfaced as an
		// obs event instead of being silently swallowed, and the placement
		// stays put (the safe outcome).
		if d.probe != nil {
			d.probe.Emit(now, d.name, "evaluate.error", -1, obs.Str("err", err.Error()))
		}
		return nil
	}
	if aff != nil {
		d.src.remapped(now, aff, matrix)
	}
	return aff
}

// consider evaluates the matrix through the filter and, when a better
// placement exists, decides whether migrating pays off. projectedScale
// converts one matrix-unit of cost delta into projected cycles saved over
// the rest of the run; zero disables the absolute gate. It returns the new
// affinity, or nil when the placement should stay.
func (d *detection) consider(now uint64, matrix *commmatrix.Matrix, projectedScale float64) ([]int, error) {
	if d.pendingAff != nil {
		// A delayed remap is in flight; retry it on its backoff schedule
		// instead of computing a fresh placement (the kernel migration
		// queue drains in order — new requests queue behind it).
		if now < d.pendingAt {
			return nil, nil
		}
		return d.apply(now, d.pendingAff)
	}
	aff, err := d.mapper.Evaluate(matrix)
	if err != nil || aff == nil {
		return nil, err
	}
	aff = mapping.Align(aff, d.aff, d.mach)
	moves := mapping.Moves(aff, d.aff)
	if moves == 0 {
		return nil, nil
	}
	oldCost := mapping.Cost(matrix, d.mach, d.aff)
	newCost := mapping.Cost(matrix, d.mach, aff)
	if oldCost > 0 && newCost > oldCost*(1-minImprovement*d.hysteresis) {
		return nil, nil
	}
	if d.moveCost > 0 && projectedScale > 0 {
		if (oldCost-newCost)*projectedScale < float64(moves)*d.moveCost {
			return nil, nil
		}
	}
	return d.apply(now, aff)
}

// apply attempts to install target as the new placement. Under fault
// injection the application may be delayed (SitePolicyRemapDelay): the
// target is parked and retried after a doubling virtual-time backoff, and
// once consecutive failures reach the watchdog budget the policy falls back
// to its initial placement for good, emitting policy.fallback exactly once.
// Without an injector this is the unconditional success path.
func (d *detection) apply(now uint64, target []int) ([]int, error) {
	if d.inj.Hit(faultinject.SitePolicyRemapDelay) {
		d.failures++
		if d.failures >= remapFailureBudget {
			d.fellBack = true
			d.pendingAff = nil
			d.aff = append([]int(nil), d.initial...)
			if d.probe != nil {
				d.probe.Emit(now, d.name, "policy.fallback", -1,
					obs.Uint("failures", uint64(d.failures)))
			}
			return append([]int(nil), d.aff...), nil
		}
		if d.backoff == 0 {
			d.backoff = d.backoffBase
		} else {
			d.backoff *= 2
		}
		d.pendingAff = target
		d.pendingAt = now + d.backoff
		if d.probe != nil {
			d.probe.Emit(now, d.name, "remap.delayed", -1,
				obs.Uint("failures", uint64(d.failures)),
				obs.Uint("retry_at", d.pendingAt))
		}
		return nil, nil
	}
	d.pendingAff = nil
	d.backoff = 0
	d.failures = 0
	// Each applied migration raises the bar for the next one by 1.5x, so a
	// static pattern settles after the first good placement. The bar is
	// minImprovement x 1.5^k after k applied remaps; from the 8th on it
	// exceeds 1, and the relative gate never passes again, however large
	// the cost gap of a later phase change.
	d.hysteresis *= 1.5
	d.aff = append([]int(nil), target...)
	return append([]int(nil), d.aff...), nil
}

// estimate is the state the TLB and HWC comparators share: a communication
// matrix estimated from hardware state, halved on saturation and aged by
// estimateDecay at every evaluation, plus the cost of the sweeps that
// read the hardware.
type estimate struct {
	detection
	matrix       *commmatrix.Matrix
	sweeps       uint64
	detectCycles uint64
}

// sweep counts one read of every context's hardware state at costPerContext
// cycles each.
func (e *estimate) sweep(costPerContext uint64) {
	e.sweeps++
	e.detectCycles += costPerContext * uint64(e.mach.NumContexts())
}

func (e *estimate) saturate(now uint64) {
	e.matrix.Scale(0.5)
	if e.probe != nil {
		e.probe.Emit(now, e.name, "sampler.saturate", -1)
	}
}

func (e *estimate) evaluate(uint64) *commmatrix.Matrix {
	snapshot := e.matrix.Copy()
	e.matrix.Scale(estimateDecay)
	return snapshot
}

func (e *estimate) remapped(uint64, []int, *commmatrix.Matrix) {}

// Overheads implements engine.Policy: the hardware sweeps are the detection
// cost.
func (e *estimate) Overheads() engine.Overheads {
	return engine.Overheads{
		DetectionCycles: e.detectCycles,
		MappingCycles:   e.mapper.MappingCycles(),
	}
}

// FinalMatrix implements engine.Policy.
func (e *estimate) FinalMatrix() *commmatrix.Matrix { return e.matrix.Copy() }
