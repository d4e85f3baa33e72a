package spcd

import "spcd/internal/faultinject"

// FaultPlan is a deterministic fault-injection plan (see
// internal/faultinject): per-site rates derived from a seed and intensity,
// injected on the simulator's virtual-time axis so that same-seed faulted
// runs are byte-identical. The zero plan is inactive — a sweep or experiment
// configured with it takes exactly the fault-free code paths.
type FaultPlan = faultinject.Plan

// DefaultFaultPlan builds a plan whose per-site rates scale linearly with
// intensity in [0, 1]: 0 is fault-free, 1 is the harshest plan the
// degradation machinery is expected to survive.
func DefaultFaultPlan(seed int64, intensity float64) FaultPlan {
	return faultinject.DefaultPlan(seed, intensity)
}

// CanonicalFaultPlan is the fixed mid-intensity plan the chaos smoke tests
// and CI run against: DefaultFaultPlan(seed, 0.5).
func CanonicalFaultPlan(seed int64) FaultPlan {
	return faultinject.CanonicalPlan(seed)
}
