package scenario

import (
	"fmt"

	"spcd/internal/commmatrix"
	"spcd/internal/engine"
	"spcd/internal/faultinject"
	"spcd/internal/mapping"
	"spcd/internal/obs"
	"spcd/internal/policy"
	"spcd/internal/sweep"
	"spcd/internal/topology"
	"spcd/internal/workloads"
)

// tenantStatus is a tenant's lifecycle state.
type tenantStatus int

const (
	statusPending tenantStatus = iota // not yet arrived
	statusWaiting                     // arrival deferred or rejected, retrying
	statusActive
	statusCompleted // access streams drained
	statusDeparted  // left at DepartAt with work remaining
	statusUnserved  // departed or scenario ended before admission
)

func (s tenantStatus) String() string {
	switch s {
	case statusPending:
		return "pending"
	case statusWaiting:
		return "waiting"
	case statusActive:
		return "active"
	case statusCompleted:
		return "completed"
	case statusDeparted:
		return "departed"
	case statusUnserved:
		return "unserved"
	}
	return "unknown"
}

// tenantState is one tenant's live serving state plus its report tallies.
type tenantState struct {
	spec   Tenant
	idx    int    // spec index
	base   int    // first stable thread id
	offset uint64 // address window displacement

	status    tenantStatus
	phase     int
	workload  *workloads.Synth
	run       workloads.Run
	exhausted []bool // per local thread, persists across intervals
	retryAt   uint64
	rejects   int // consecutive injected admission rejections

	admitted      bool
	admittedAt    uint64
	endAt         uint64
	admitRejects  int
	admitDefers   int
	phaseSwitches int
	accesses      uint64
	intervals     int
	samples       []float64 // per-interval slowdown vs nominal speed
}

// startPhase (re)creates the tenant's workload and access streams for its
// current phase. Streams are seeded positionally from the master seed so a
// tenant's work is identical regardless of when admission succeeds or what
// else is running.
func (st *tenantState) startPhase(master int64) error {
	ph := st.spec.Phases[st.phase]
	w, err := workloads.NewNPB(ph.Kernel, st.spec.Threads, st.spec.Class)
	if err != nil {
		return err
	}
	st.workload = w
	st.run = w.NewRun(sweep.DeriveSeed(master, fmt.Sprintf("tenant/%s/phase/%d", st.spec.ID, st.phase)))
	for l := range st.exhausted {
		st.exhausted[l] = false
	}
	return nil
}

// runner executes one scenario.
type runner struct {
	s    Spec
	mach *topology.Machine

	tenants []*tenantState
	total   int   // stable thread ids: sum of all tenant threads
	place   []int // stable thread -> context, -1 when inactive
	matrix  *commmatrix.Matrix
	gov     *governor
	admit   *faultinject.Injector
	probe   *obs.Probe

	ctxOrder []int // canonical context preference order (scatter)
	compute  int
	budget   uint64 // per-thread accesses per interval

	remapPending    bool // membership changed since the last applied remap
	decayPending    bool // membership changed since the last churn decay
	fallbackEmitted bool

	rep *Report
}

// Run executes the scenario and returns its report.
func Run(spec Spec) (*Report, error) {
	s, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	r := &runner{
		s:       s,
		mach:    s.Machine,
		probe:   s.Options.Probe,
		compute: s.Tenants[0].Class.ComputePerMemop,
		rep: &Report{
			Policy:         s.Policy,
			MasterSeed:     s.MasterSeed,
			IntervalCycles: s.IntervalCycles,
		},
	}
	r.budget = s.IntervalCycles / uint64(r.compute+workloads.NominalAccessCycles)
	if r.budget == 0 {
		r.budget = 1
	}
	base := 0
	for i, t := range s.Tenants {
		r.tenants = append(r.tenants, &tenantState{
			spec:      t,
			idx:       i,
			base:      base,
			offset:    tenantOffset(i),
			status:    statusPending,
			exhausted: make([]bool, t.Threads),
		})
		base += t.Threads
	}
	r.total = base
	r.place = make([]int, r.total)
	for i := range r.place {
		r.place[i] = -1
	}
	r.matrix = commmatrix.New(r.total)
	r.gov = newGovernor(s.MigrationBudget, s.IntervalCycles)
	if f := s.Options.Faults; f.Active() {
		r.admit = faultinject.NewInjector(f, sweep.DeriveSeed(s.MasterSeed, "scenario/admission"))
		r.rep.FaultDigest = f.Digest()
	}
	r.ctxOrder = policy.Scatter(r.mach, r.mach.NumContexts())

	k := 0
	for ; k < s.MaxIntervals; k++ {
		now := uint64(k) * s.IntervalCycles
		r.gov.beginInterval()
		r.boundary(now)
		if r.allDone() {
			break
		}
		active := r.activeTenants()
		if len(active) == 0 {
			continue // schedule gap before the next arrival or retry
		}
		if r.remapPending {
			if r.detecting() {
				r.boundaryRemap(now)
			} else {
				r.remapPending = false
			}
		}
		if err := r.runInterval(k, now, active); err != nil {
			return nil, fmt.Errorf("scenario: interval %d: %w", k, err)
		}
	}
	r.finalize(uint64(k) * s.IntervalCycles)
	return r.rep, nil
}

// detecting reports whether the policy maintains a communication matrix.
func (r *runner) detecting() bool {
	switch r.s.Policy {
	case "spcd", "tlb", "hwc":
		return true
	}
	return false
}

func (r *runner) emit(now uint64, name string, args ...obs.Arg) {
	if r.probe != nil {
		r.probe.Emit(now, "scenario", name, -1, args...)
	}
}

// allDone reports whether every tenant reached a terminal state.
func (r *runner) allDone() bool {
	for _, st := range r.tenants {
		switch st.status {
		case statusCompleted, statusDeparted, statusUnserved:
		default:
			return false
		}
	}
	return true
}

func (r *runner) activeTenants() []*tenantState {
	var out []*tenantState
	for _, st := range r.tenants {
		if st.status == statusActive {
			out = append(out, st)
		}
	}
	return out
}

// activeStableIDs lists the stable thread ids of active tenants, ascending —
// the composite thread order of the interval.
func (r *runner) activeStableIDs() []int {
	var ids []int
	for _, st := range r.tenants {
		if st.status != statusActive {
			continue
		}
		for l := 0; l < st.spec.Threads; l++ {
			ids = append(ids, st.base+l)
		}
	}
	return ids
}

func (r *runner) activeThreadCount() int {
	n := 0
	for _, st := range r.tenants {
		if st.status == statusActive {
			n += st.spec.Threads
		}
	}
	return n
}

// noteChange records a membership change (arrival, departure, completion,
// phase switch): the placement should be reconsidered and stale affinity in
// the matrix decays.
func (r *runner) noteChange() {
	r.remapPending = true
	r.decayPending = true
}

// zeroTenant clears the tenant's rows and columns of the persistent matrix.
func (r *runner) zeroTenant(st *tenantState) {
	for l := 0; l < st.spec.Threads; l++ {
		a := st.base + l
		for b := 0; b < r.total; b++ {
			r.matrix.Set(a, b, 0)
			r.matrix.Set(b, a, 0)
		}
	}
}

// deactivate removes a tenant from the serving mix.
func (r *runner) deactivate(st *tenantState, status tenantStatus, now uint64) {
	for l := 0; l < st.spec.Threads; l++ {
		r.place[st.base+l] = -1
	}
	st.status = status
	st.endAt = now
	r.zeroTenant(st)
	r.noteChange()
}

// boundary processes the schedule events due at global time now, in
// canonical order: departures, then phase switches, then arrivals and
// admission retries — each pass in tenant spec order.
func (r *runner) boundary(now uint64) {
	for _, st := range r.tenants {
		if st.status == statusActive && st.spec.DepartAt != 0 && st.spec.DepartAt <= now {
			r.deactivate(st, statusDeparted, now)
			r.emit(now, "tenant.depart", obs.Str("id", st.spec.ID))
		}
	}
	for _, st := range r.tenants {
		if st.status != statusActive {
			continue
		}
		p := st.phase
		for p+1 < len(st.spec.Phases) && st.spec.Phases[p+1].AtCycles <= now {
			p++
		}
		if p == st.phase {
			continue
		}
		st.phase = p
		if err := st.startPhase(r.s.MasterSeed); err != nil {
			// Kernels were validated by normalize; a failure here is a bug.
			panic(err)
		}
		st.phaseSwitches++
		r.zeroTenant(st)
		r.noteChange()
		r.emit(now, "tenant.phase", obs.Str("id", st.spec.ID),
			obs.Uint("phase", uint64(p)), obs.Str("kernel", st.spec.Phases[p].Kernel))
	}
	for _, st := range r.tenants {
		ready := (st.status == statusPending && st.spec.ArriveAt <= now) ||
			(st.status == statusWaiting && st.retryAt <= now)
		if !ready {
			continue
		}
		if st.spec.DepartAt != 0 && st.spec.DepartAt <= now {
			// The tenant's departure deadline passed while it waited for
			// admission: it was never served.
			st.status = statusUnserved
			st.endAt = now
			r.emit(now, "tenant.unserved", obs.Str("id", st.spec.ID))
			continue
		}
		if r.activeThreadCount()+st.spec.Threads > r.mach.NumContexts() {
			// Capacity deferral: retry every boundary, no escalation — the
			// machine will drain.
			st.status = statusWaiting
			st.retryAt = now + r.s.IntervalCycles
			st.admitDefers++
			r.emit(now, "tenant.admit.defer", obs.Str("id", st.spec.ID),
				obs.Uint("retry_at", st.retryAt))
			continue
		}
		if r.admit.Hit(faultinject.SiteScenarioAdmitFail) {
			// Injected admission failure (control-plane flake): doubling
			// backoff, never dropped.
			st.rejects++
			st.admitRejects++
			shift := uint(st.rejects - 1)
			if shift > 16 {
				shift = 16
			}
			st.status = statusWaiting
			st.retryAt = now + r.s.IntervalCycles<<shift
			r.emit(now, "tenant.admit.reject", obs.Str("id", st.spec.ID),
				obs.Uint("retry_at", st.retryAt), obs.Uint("rejects", uint64(st.admitRejects)))
			continue
		}
		if err := r.admitTenant(st, now); err != nil {
			panic(err) // kernels were validated by normalize
		}
	}
	if r.decayPending {
		r.matrix.Scale(churnDecay)
		r.decayPending = false
	}
}

// admitTenant places the tenant on free contexts and starts its streams.
func (r *runner) admitTenant(st *tenantState, now uint64) error {
	// Fast-forward to the phase already due — a tenant admitted late starts
	// in the phase its schedule says it should be in.
	for st.phase+1 < len(st.spec.Phases) && st.spec.Phases[st.phase+1].AtCycles <= now {
		st.phase++
	}
	if err := st.startPhase(r.s.MasterSeed); err != nil {
		return err
	}
	used := make([]bool, r.mach.NumContexts())
	for _, ctx := range r.place {
		if ctx >= 0 {
			used[ctx] = true
		}
	}
	assigned := 0
	for _, ctx := range r.ctxOrder {
		if assigned == st.spec.Threads {
			break
		}
		if !used[ctx] {
			r.place[st.base+assigned] = ctx
			assigned++
		}
	}
	if assigned != st.spec.Threads {
		return fmt.Errorf("scenario: tenant %s: only %d of %d contexts free after capacity check",
			st.spec.ID, assigned, st.spec.Threads)
	}
	st.status = statusActive
	st.rejects = 0
	if !st.admitted {
		st.admitted = true
		st.admittedAt = now
	}
	r.zeroTenant(st)
	r.noteChange()
	r.emit(now, "tenant.arrive", obs.Str("id", st.spec.ID),
		obs.Uint("phase", uint64(st.phase)), obs.Uint("threads", uint64(st.spec.Threads)))
	return nil
}

// boundaryRemap recomputes the serving placement from the persistent
// communication matrix after a membership change, minimizes churn against
// the current placement (mapping.Align), and applies the result through the
// churn governor's budget.
func (r *runner) boundaryRemap(now uint64) {
	if r.gov.backingOff(now) {
		return // retry at a later boundary; remapPending stays set
	}
	ids := r.activeStableIDs()
	if len(ids) == 0 {
		r.remapPending = false
		return
	}
	sub := commmatrix.New(len(ids))
	for i, a := range ids {
		for j, b := range ids {
			if v := r.matrix.At(a, b); v != 0 {
				sub.Set(i, j, v)
			}
		}
	}
	target, err := mapping.Compute(sub, r.mach, nil)
	if err != nil {
		r.emit(now, "remap.error", obs.Str("err", err.Error()))
		r.remapPending = false
		return
	}
	cur := make([]int, len(ids))
	for i, a := range ids {
		cur[i] = r.place[a]
	}
	aligned := mapping.Align(target, cur, r.mach)
	aff, moved, deferred := r.gov.propose(now, cur, aligned)
	interval := now / r.s.IntervalCycles
	if aff != nil {
		for i, a := range ids {
			r.place[a] = aff[i]
		}
		r.rep.BoundaryMoves += moved
		r.emit(now, "remap.applied", obs.Uint("moved", uint64(moved)),
			obs.Uint("used", uint64(r.gov.used)), obs.Uint("budget", uint64(r.gov.budget)),
			obs.Uint("interval", interval))
	}
	if deferred {
		r.emit(now, "remap.deferred", obs.Uint("interval", interval))
		r.noteFallback(now)
		return // part of the remap is outstanding; retry at a later boundary
	}
	r.remapPending = false
}

func (r *runner) noteFallback(now uint64) {
	if r.gov.fellBack && !r.fallbackEmitted {
		r.fallbackEmitted = true
		r.emit(now, "governor.fallback", obs.Uint("interval", now/r.s.IntervalCycles))
	}
}

// runInterval executes one serving interval on the engine.
func (r *runner) runInterval(k int, now uint64, active []*tenantState) error {
	ids := r.activeStableIDs()
	comp := newComposite(active, r.budget, r.compute)
	initial := make([]int, len(ids))
	for i, a := range ids {
		initial[i] = r.place[a]
	}
	pol, err := r.newIntervalPolicy(comp, initial, k, now)
	if err != nil {
		return err
	}
	seed := sweep.DeriveSeed(r.s.MasterSeed, fmt.Sprintf("interval/%d", k))
	o := r.s.Options
	o.Probe = nil // the scenario's probe records adaptation events, not runs
	met, err := engine.Run(o.Config(r.mach, comp, pol, seed, func() string { return fmt.Sprintf("interval %d", k) }))
	if err != nil {
		return err
	}
	// The wrapper's cur tracked every applied migration; it is the serving
	// placement the next interval resumes from.
	for i, a := range ids {
		r.place[a] = pol.cur[i]
	}
	r.rep.Intervals++
	r.rep.ExecCycles += met.ExecCycles
	r.rep.Instructions += met.Instructions
	r.rep.C2CSameSocket += met.Cache.C2CSameSocket
	r.rep.C2CCrossSocket += met.Cache.C2CCrossSocket
	r.rep.Migrations += met.Migrations
	r.rep.MigratedThreads += met.MigratedThreads

	run := comp.active
	for _, e := range comp.entries {
		st := e.st
		var delivered uint64
		for l := 0; l < e.threads; l++ {
			delivered += run.delivered[e.base+l]
		}
		st.accesses += delivered
		st.intervals++
		if delivered > 0 {
			// Slowdown of this interval vs running alone at nominal speed:
			// the mix is gang-scheduled per interval, so every resident
			// tenant experiences the interval's wall time (DESIGN.md §16).
			mean := float64(delivered) / float64(e.threads)
			nominal := mean * float64(r.compute+workloads.NominalAccessCycles)
			st.samples = append(st.samples, float64(met.ExecCycles)/nominal)
		}
	}

	if r.detecting() && met.CommMatrix != nil {
		r.matrix.Scale(intervalDecay)
		for i, a := range ids {
			for j, b := range ids {
				if v := met.CommMatrix.At(i, j); v != 0 {
					r.matrix.Add(a, b, v)
				}
			}
		}
	}

	end := now + r.s.IntervalCycles
	for _, e := range comp.entries {
		st := e.st
		if st.status != statusActive {
			continue
		}
		done := true
		for _, ex := range st.exhausted {
			if !ex {
				done = false
				break
			}
		}
		if done {
			r.deactivate(st, statusCompleted, end)
			r.emit(end, "tenant.complete", obs.Str("id", st.spec.ID))
		}
	}
	return nil
}

// finalize assembles the report. endCycles is the global time the loop
// stopped at.
func (r *runner) finalize(endCycles uint64) {
	r.rep.TotalCycles = endCycles
	r.rep.GovernorApplied = r.gov.applied
	r.rep.GovernorDeferrals = r.gov.deferrals
	r.rep.GovernorFellBack = r.gov.fellBack
	for _, st := range r.tenants {
		switch st.status {
		case statusCompleted, statusDeparted, statusUnserved:
		default:
			// The scenario ended (MaxIntervals) with this tenant unfinished.
			r.rep.Truncated = true
			if !st.admitted {
				st.status = statusUnserved
			}
			st.endAt = endCycles
		}
		tm := TenantMetrics{
			ID:            st.spec.ID,
			Kernel:        st.spec.Phases[st.phase].Kernel,
			Threads:       st.spec.Threads,
			Status:        st.status.String(),
			ArriveAt:      st.spec.ArriveAt,
			AdmittedAt:    st.admittedAt,
			Admitted:      st.admitted,
			EndAt:         st.endAt,
			AdmitRejects:  st.admitRejects,
			AdmitDefers:   st.admitDefers,
			PhaseSwitches: st.phaseSwitches,
			Accesses:      st.accesses,
			Intervals:     st.intervals,
		}
		tm.MeanSlowdown, tm.P99Slowdown = slowdownStats(st.samples)
		r.rep.AdmitRejects += st.admitRejects
		r.rep.AdmitDefers += st.admitDefers
		r.rep.Tenants = append(r.rep.Tenants, tm)
	}
}

// slowdownStats returns the mean and p99 of the per-interval slowdown
// samples (0, 0 when the tenant never delivered work).
func slowdownStats(samples []float64) (mean, p99 float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), samples...)
	for i := 1; i < len(sorted); i++ { // insertion sort keeps it dependency-free
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	idx := (99*len(sorted) + 99) / 100
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sum / float64(len(sorted)), sorted[idx-1]
}

// intervalPolicy adapts the serving policy to one engine run: it replays
// the interval-start placement, drives the tuned inner policy (none for
// static), and routes every proposed migration through the churn governor.
type intervalPolicy struct {
	r    *runner
	k    int
	now0 uint64 // global time of the interval start

	inner engine.Policy // nil for static
	cur   []int         // composite thread -> context, tracks applied migrations
}

// newIntervalPolicy builds the wrapper plus, unless the policy is static,
// the tuned inner policy seeded at the interval-start placement.
func (r *runner) newIntervalPolicy(comp *composite, initial []int, k int, now uint64) (*intervalPolicy, error) {
	p := &intervalPolicy{r: r, k: k, now0: now, cur: append([]int(nil), initial...)}
	if r.s.Policy != "static" {
		inner, err := policy.TunedFrom(r.s.Policy, comp, r.mach, initial)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		p.inner = inner
	}
	return p, nil
}

// Name implements engine.Policy.
func (p *intervalPolicy) Name() string { return p.r.s.Policy }

// Init implements engine.Policy.
func (p *intervalPolicy) Init(env *engine.Env) error {
	if p.inner == nil {
		return nil
	}
	return p.inner.Init(env)
}

// InitialAffinity implements engine.Policy: the serving placement the
// boundary left behind. Applying it here charges no migrations — the
// boundary moves are accounted separately (Report.BoundaryMoves).
func (p *intervalPolicy) InitialAffinity() []int { return append([]int(nil), p.cur...) }

// Tick implements engine.Policy: collect the inner policy's placement
// proposal and apply whatever part of it the churn governor admits.
func (p *intervalPolicy) Tick(now uint64) []int {
	if p.inner == nil {
		return nil
	}
	target := p.inner.Tick(now)
	if target == nil {
		return nil
	}
	// The governor's clock is global virtual time: backoff windows started
	// at a boundary must still be in force here, and vice versa.
	gnow := p.now0 + now
	gov := p.r.gov
	aff, moved, deferred := gov.propose(gnow, p.cur, target)
	if deferred {
		p.r.emit(gnow, "remap.deferred", obs.Uint("interval", uint64(p.k)))
		p.r.noteFallback(gnow)
	}
	if aff != nil {
		copy(p.cur, aff)
		p.r.emit(gnow, "remap.applied", obs.Uint("moved", uint64(moved)),
			obs.Uint("used", uint64(gov.used)), obs.Uint("budget", uint64(gov.budget)),
			obs.Uint("interval", uint64(p.k)))
	}
	// An inner policy with Rebase (the os policy) starts its next swap from
	// the placement actually applied, not its own last proposal. The
	// detection policies keep their belief (DESIGN.md §16).
	if rb, ok := p.inner.(interface{ Rebase([]int) }); ok {
		rb.Rebase(p.cur)
	}
	return aff
}

// Overheads implements engine.Policy.
func (p *intervalPolicy) Overheads() engine.Overheads {
	if p.inner != nil {
		return p.inner.Overheads()
	}
	return engine.Overheads{}
}

// FinalMatrix implements engine.Policy.
func (p *intervalPolicy) FinalMatrix() *commmatrix.Matrix {
	if p.inner != nil {
		return p.inner.FinalMatrix()
	}
	return nil
}
