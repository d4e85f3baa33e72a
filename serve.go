package spcd

import "spcd/internal/scenario"

// Scenario describes a long-running multi-tenant serving run: a deterministic
// stream of tenant arrivals, phase switches, departures and completions that
// the placement policy must adapt to online (see internal/scenario for the
// schedule semantics and the determinism contract).
type Scenario = scenario.Spec

// ScenarioTenant is one application in a scenario's workload mix.
type ScenarioTenant = scenario.Tenant

// ScenarioPhase is one stretch of a tenant's lifetime on a single kernel.
type ScenarioPhase = scenario.Phase

// ScenarioReport is the outcome of one scenario run: run-level adaptation
// totals plus per-tenant serving metrics (status, admission history, and the
// slowdown distribution the SLO analysis reads p99 from).
type ScenarioReport = scenario.Report

// TenantMetrics is one tenant's serving outcome within a ScenarioReport.
type TenantMetrics = scenario.TenantMetrics

// Serve runs one scenario to completion and returns its report. The report
// is a pure function of the spec: byte-identical for the same spec at every
// engine shard count and regardless of host scheduling.
func Serve(spec Scenario) (*ScenarioReport, error) {
	return scenario.Run(spec)
}

// DefaultScenario builds the canonical churn schedule over nTenants tenants:
// staggered arrivals, a phase switch for every tenant after the first, and a
// departure for every third tenant. With nTenants >= 3 one run exercises
// arrival, phase switch and departure.
func DefaultScenario(nTenants int, class Class, seed int64) Scenario {
	return scenario.DefaultSpec(nTenants, class, seed)
}
