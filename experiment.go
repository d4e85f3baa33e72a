package spcd

import (
	"fmt"
	"sort"

	"spcd/internal/stats"
)

// Metric identifies one of the quantities the paper's evaluation reports.
type Metric string

// The metrics of Figures 8-16 and Table II.
const (
	MetricTime       Metric = "time"       // execution time, seconds (Fig. 8)
	MetricL2MPKI     Metric = "l2mpki"     // L2 misses per kilo-instruction (Fig. 9)
	MetricL3MPKI     Metric = "l3mpki"     // L3 misses per kilo-instruction (Fig. 10)
	MetricC2C        Metric = "c2c"        // cache-to-cache transactions (Fig. 11)
	MetricProcEnergy Metric = "procenergy" // total processor energy, J (Fig. 12)
	MetricDRAMEnergy Metric = "dramenergy" // total DRAM energy, J (Fig. 13)
	MetricProcEPI    Metric = "procepi"    // processor energy per instruction, nJ (Fig. 14)
	MetricDRAMEPI    Metric = "dramepi"    // DRAM energy per instruction, nJ (Fig. 15)
	MetricMigrations Metric = "migrations" // migration events (Table II)
	MetricDetectOvh  Metric = "detectovh"  // detection overhead, % (Fig. 16)
	MetricMappingOvh Metric = "mappingovh" // mapping overhead, % (Fig. 16)
)

// Metrics lists all report metrics in presentation order.
var AllMetrics = []Metric{
	MetricTime, MetricL2MPKI, MetricL3MPKI, MetricC2C,
	MetricProcEnergy, MetricDRAMEnergy, MetricProcEPI, MetricDRAMEPI,
	MetricMigrations, MetricDetectOvh, MetricMappingOvh,
}

// MetricValue extracts a metric from run metrics.
func MetricValue(m Metrics, metric Metric) (float64, error) {
	switch metric {
	case MetricTime:
		return m.ExecSeconds, nil
	case MetricL2MPKI:
		return m.L2MPKI, nil
	case MetricL3MPKI:
		return m.L3MPKI, nil
	case MetricC2C:
		return float64(m.Cache.C2CTotal()), nil
	case MetricProcEnergy:
		return m.Energy.ProcessorJoules, nil
	case MetricDRAMEnergy:
		return m.Energy.DRAMJoules, nil
	case MetricProcEPI:
		return m.Energy.ProcPerInstrNJ, nil
	case MetricDRAMEPI:
		return m.Energy.DRAMPerInstrNJ, nil
	case MetricMigrations:
		return float64(m.Migrations), nil
	case MetricDetectOvh:
		return m.DetectionOverheadPct, nil
	case MetricMappingOvh:
		return m.MappingOverheadPct, nil
	}
	return 0, fmt.Errorf("spcd: unknown metric %q", metric)
}

// Results holds all runs of one workload, indexed by policy.
type Results struct {
	Workload string
	ByPolicy map[string][]Metrics
	order    []string
}

// orDefault returns v, or def when v is zero. A negative v is an error
// naming field.
func orDefault(field string, v, def int) (int, error) {
	if v < 0 {
		return 0, fmt.Errorf("spcd: negative %s %d", field, v)
	}
	if v == 0 {
		return def, nil
	}
	return v, nil
}

// Policies returns the policy names in execution order.
func (r *Results) Policies() []string {
	if r.order != nil {
		return append([]string(nil), r.order...)
	}
	out := make([]string, 0, len(r.ByPolicy))
	for name := range r.ByPolicy {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Values extracts a metric across a policy's repetitions.
func (r *Results) Values(policyName string, metric Metric) ([]float64, error) {
	runs, ok := r.ByPolicy[policyName]
	if !ok {
		return nil, fmt.Errorf("spcd: no runs for policy %q", policyName)
	}
	out := make([]float64, len(runs))
	for i, m := range runs {
		v, err := MetricValue(m, metric)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Summary aggregates a metric across a policy's repetitions (mean, standard
// deviation, 95% Student-t confidence interval).
func (r *Results) Summary(policyName string, metric Metric) (stats.Summary, error) {
	vals, err := r.Values(policyName, metric)
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Summarize(vals), nil
}

// NormalizedMean returns the mean of the metric under policyName divided by
// its mean under baseline — the "normalized to the OS" values of the
// paper's figures.
func (r *Results) NormalizedMean(policyName string, metric Metric, baseline string) (float64, error) {
	p, err := r.Summary(policyName, metric)
	if err != nil {
		return 0, err
	}
	b, err := r.Summary(baseline, metric)
	if err != nil {
		return 0, err
	}
	return stats.Normalize(p.Mean, b.Mean)
}

// PercentChange returns the relative change (percent) of the metric under
// policyName versus baseline, as reported in Table II. A zero or NaN
// baseline mean is an explicit error rather than a silent 0/NaN/±Inf cell.
func (r *Results) PercentChange(policyName string, metric Metric, baseline string) (float64, error) {
	p, err := r.Summary(policyName, metric)
	if err != nil {
		return 0, err
	}
	b, err := r.Summary(baseline, metric)
	if err != nil {
		return 0, err
	}
	return stats.PercentChange(p.Mean, b.Mean)
}
