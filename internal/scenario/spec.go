// Package scenario is the long-running multi-tenant serving layer: it
// composes the synthetic NPB kernels into a deterministic stream of tenant
// arrivals, phase switches, departures and completions, and drives the
// engine interval by interval so the mapping policy must adapt online to
// workload churn instead of meeting one fixed application.
//
// Determinism contract (the same one the rest of the simulator holds): a
// scenario is a pure function of its Spec. Every random stream is derived
// positionally from the master seed (sweep.DeriveSeed), the schedule runs
// in virtual time only, and the per-tenant metrics are byte-identical at
// every RunJobs parallelism and every engine shard count.
package scenario

import (
	"fmt"
	"sort"

	"spcd/internal/engine"
	"spcd/internal/topology"
	"spcd/internal/workloads"
)

// Phase is one stretch of a tenant's lifetime running a single kernel.
// A phase switch models the application changing its communication pattern
// mid-life (the paper's dynamic-behavior concern, §VI): the tenant's access
// streams restart on the new kernel and the stale rows of the communication
// matrix are dropped.
type Phase struct {
	// Kernel names the synthetic NPB kernel ("CG", "MG", ...).
	Kernel string
	// AtCycles is the global virtual time at which the tenant switches to
	// this phase. The first phase's value is ignored (it starts at
	// admission); later phases must be strictly increasing.
	AtCycles uint64
}

// Tenant is one application in the serving mix.
type Tenant struct {
	// ID names the tenant in reports and events; IDs must be unique.
	ID string
	// Threads is the tenant's thread count; it must fit the machine.
	Threads int
	// Class scales the tenant's footprint and per-phase duration.
	Class workloads.Class
	// ArriveAt is the global virtual time the tenant requests admission.
	ArriveAt uint64
	// DepartAt, when non-zero, is the global virtual time the tenant leaves
	// regardless of progress (an evicted or cancelled job). Zero means the
	// tenant runs until its current phase's access stream is exhausted.
	DepartAt uint64
	// Phases is the tenant's kernel schedule; at least one is required.
	Phases []Phase
}

// Spec parameterizes one scenario run.
type Spec struct {
	// Machine is the simulated host; nil selects topology.DefaultXeon.
	Machine *topology.Machine
	// Policy selects the serving placement policy: "static" (placed at
	// admission, never moved), "os" (admission placement plus random load
	// balancer churn), or an online detection policy "spcd", "tlb", "hwc".
	Policy string
	// MasterSeed roots every derived stream of the scenario.
	MasterSeed int64
	// Tenants is the workload mix; order is the canonical tenant order.
	Tenants []Tenant
	// IntervalCycles is the serving interval: the schedule quantum at which
	// arrivals, departures and phase switches take effect and the migration
	// budget resets. 0 picks 1/8 of the shortest tenant phase's nominal
	// duration.
	IntervalCycles uint64
	// MaxIntervals bounds the scenario (a watchdog against schedules that
	// cannot drain); 0 selects 1024, negative is an error.
	MaxIntervals int
	// MigrationBudget is the churn governor's hard cap on thread moves per
	// interval; 0 selects 4.
	MigrationBudget int
	// Options selects every interval's engine (Shards; byte-identical at
	// any worker count >= 1), arms fault injection (Faults: the admission
	// path, scenario.admit.fail, plus every interval's engine run), records
	// the scenario's adaptation events (admission decisions, remaps,
	// governor deferrals) at global virtual time (Probe), and gives each
	// interval run its own host-time proc, "interval <k>" (Runtime). The
	// interval runs themselves are unobserved.
	Options engine.RunOptions
}

// The persistent communication matrix ages twice: churnDecay scales it on
// every membership change (arrival, departure, completion, phase switch),
// so stale affinity fades quickly under churn, and intervalDecay once per
// interval, before the interval's detected communication is merged in.
const (
	churnDecay    = 0.5
	intervalDecay = 0.7
)

// scenarioPolicies are the placement modes the serving loop implements.
var scenarioPolicies = map[string]bool{
	"static": true, "os": true, "spcd": true, "tlb": true, "hwc": true,
}

// normalize validates spec and returns a copy with defaults filled.
func (s Spec) normalize() (Spec, error) {
	if s.Machine == nil {
		s.Machine = topology.DefaultXeon()
	}
	if s.Policy == "" {
		s.Policy = "spcd"
	}
	if !scenarioPolicies[s.Policy] {
		return s, fmt.Errorf("scenario: unknown policy %q", s.Policy)
	}
	if err := s.Options.Validate(); err != nil {
		return s, fmt.Errorf("scenario: %w", err)
	}
	if len(s.Tenants) == 0 {
		return s, fmt.Errorf("scenario: no tenants")
	}
	seen := make(map[string]bool, len(s.Tenants))
	compute := -1
	minNominal := uint64(0)
	for i, t := range s.Tenants {
		if t.ID == "" {
			return s, fmt.Errorf("scenario: tenant %d has no ID", i)
		}
		if seen[t.ID] {
			return s, fmt.Errorf("scenario: duplicate tenant ID %q", t.ID)
		}
		seen[t.ID] = true
		if t.Threads <= 0 {
			return s, fmt.Errorf("scenario: tenant %s: threads = %d", t.ID, t.Threads)
		}
		if t.Threads > s.Machine.NumContexts() {
			return s, fmt.Errorf("scenario: tenant %s: %d threads exceed %d contexts",
				t.ID, t.Threads, s.Machine.NumContexts())
		}
		if t.DepartAt != 0 && t.DepartAt <= t.ArriveAt {
			return s, fmt.Errorf("scenario: tenant %s departs at %d before arriving at %d",
				t.ID, t.DepartAt, t.ArriveAt)
		}
		if len(t.Phases) == 0 {
			return s, fmt.Errorf("scenario: tenant %s has no phases", t.ID)
		}
		if compute == -1 {
			compute = t.Class.ComputePerMemop
		} else if compute != t.Class.ComputePerMemop {
			// The composite workload exposes one compute gap for the whole
			// mix; heterogeneous gaps would need per-thread engine support.
			return s, fmt.Errorf("scenario: tenant %s: ComputePerMemop %d differs from the mix's %d",
				t.ID, t.Class.ComputePerMemop, compute)
		}
		prev := uint64(0)
		for p, ph := range t.Phases {
			w, err := workloads.NewNPB(ph.Kernel, t.Threads, t.Class)
			if err != nil {
				return s, fmt.Errorf("scenario: tenant %s phase %d: %w", t.ID, p, err)
			}
			if p > 0 {
				if ph.AtCycles <= t.ArriveAt {
					return s, fmt.Errorf("scenario: tenant %s phase %d switches at %d, before arrival %d",
						t.ID, p, ph.AtCycles, t.ArriveAt)
				}
				if ph.AtCycles <= prev {
					return s, fmt.Errorf("scenario: tenant %s phase %d not after phase %d", t.ID, p, p-1)
				}
				prev = ph.AtCycles
			}
			nom := workloads.NominalCycles(w)
			if minNominal == 0 || nom < minNominal {
				minNominal = nom
			}
		}
	}
	if s.IntervalCycles == 0 {
		s.IntervalCycles = minNominal / 8
	}
	minInterval := uint64(compute) + workloads.NominalAccessCycles
	if s.IntervalCycles < minInterval {
		s.IntervalCycles = minInterval
	}
	if s.MaxIntervals == 0 {
		s.MaxIntervals = 1024
	}
	if s.MaxIntervals < 0 {
		return s, fmt.Errorf("scenario: negative max intervals %d", s.MaxIntervals)
	}
	if s.MigrationBudget == 0 {
		s.MigrationBudget = 4
	}
	if s.MigrationBudget < 0 {
		return s, fmt.Errorf("scenario: negative migration budget %d", s.MigrationBudget)
	}
	return s, nil
}

// defaultRotation is the kernel sequence DefaultSpec cycles through: a mix
// of heterogeneous (CG, MG, SP, LU, BT, UA) and homogeneous (FT, IS)
// communication patterns so the online detector always has both structure
// to exploit and noise to reject.
var defaultRotation = []string{"CG", "MG", "SP", "LU", "FT", "BT", "IS", "UA"}

// DefaultSpec builds the canonical churn schedule over nTenants tenants of
// the given class: staggered arrivals every two intervals, a phase switch
// for every tenant after the first, and a departure for every third tenant.
// With nTenants >= 3 the schedule exercises arrival, phase switch and
// departure in one run. The interval length mirrors normalize's default
// (1/8 of the shortest phase's nominal duration) so schedules land on
// boundary times. Below one tenant the spec has none, and a class NewNPB
// rejects leaves the interval unset; Run rejects both.
func DefaultSpec(nTenants int, class workloads.Class, seed int64) Spec {
	minNominal := uint64(0)
	kernels := make(map[string]bool)
	for i := 0; i < nTenants; i++ {
		kernels[defaultRotation[i%len(defaultRotation)]] = true
		kernels[defaultRotation[(i+1)%len(defaultRotation)]] = true
	}
	names := make([]string, 0, len(kernels))
	for k := range kernels {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		w, err := workloads.NewNPB(k, 4, class)
		if err != nil {
			break // a bad class: the interval stays unset and Run reports the error
		}
		if nom := workloads.NominalCycles(w); minNominal == 0 || nom < minNominal {
			minNominal = nom
		}
	}
	interval := minNominal / 8
	tenants := make([]Tenant, max(nTenants, 0))
	for i := range tenants {
		arrive := uint64(i) * 2 * interval
		t := Tenant{
			ID:       fmt.Sprintf("t%02d", i),
			Threads:  4,
			Class:    class,
			ArriveAt: arrive,
			Phases:   []Phase{{Kernel: defaultRotation[i%len(defaultRotation)]}},
		}
		if i >= 1 {
			t.Phases = append(t.Phases, Phase{
				Kernel:   defaultRotation[(i+1)%len(defaultRotation)],
				AtCycles: arrive + 4*interval,
			})
		}
		if i%3 == 2 {
			t.DepartAt = arrive + 7*interval
		}
		tenants[i] = t
	}
	return Spec{
		MasterSeed:      seed,
		Tenants:         tenants,
		IntervalCycles:  interval,
		MigrationBudget: 4,
	}
}
