package policy

import (
	"fmt"

	"spcd/internal/core"
	"spcd/internal/engine"
	"spcd/internal/topology"
	"spcd/internal/workloads"
)

// The paper's mechanism uses absolute periods — a 10 ms sampler, periodic
// matrix evaluation — on benchmarks running 0.2 to 104 seconds, i.e. tens
// to thousands of sampler periods per run. The simulator executes far fewer
// accesses per run, so using absolute 10 ms periods would mean the sampler
// fires once or never. Tuned policies therefore scale every period from the
// workload's *nominal duration* so the interval-to-runtime ratios stay in
// the paper's regime (see DESIGN.md §4 "Scale"):
//
//	sampler period  = nominal / 64  (paper: 1/20 .. 1/10000 of runtime)
//	first eval      = nominal / 12  (the pattern stabilizes "after a short
//	                                 period of initialization", §V-C)
//	matrix eval     = nominal /  8
//	OS churn        = nominal /  3
//	temporal window = 16 x sampler period
//
// The sampler floor (MinBatch) is raised versus the kernel default because
// a simulated run compresses minutes of execution into ~10^6 cycles: the
// paper's 10%-of-faults budget would yield a few hundred induced faults,
// statistically too few to recover a 32x32 matrix. At ClassSmall and above
// the resulting overhead ratio lands in the paper's sub-2% regime (§V-F).

// TunedSPCDConfig returns the paper's SPCD configuration with periods
// scaled to the workload's nominal duration.
func TunedSPCDConfig(w workloads.Workload, m *topology.Machine) core.Config {
	nominal := workloads.NominalCycles(w)
	cfg := core.DefaultConfig(m, w.NumThreads())
	cfg.SamplerInterval = max(nominal/64, 1)
	cfg.TimeWindow = 16 * cfg.SamplerInterval
	cfg.MinBatch = 24
	// Coarser detection granularity (§III-C1): at simulation scale the
	// fault budget is thousands of times smaller than on the real
	// machine, so each fault must contribute more pattern information.
	// A 64 KByte region accumulates the sharers of 16 pages, multiplying
	// the events per fault; workload layouts pad distinct regions apart
	// so no spatial false communication is introduced.
	cfg.Granularity = 64 * 1024
	return cfg
}

// TunedSPCDOptions returns the scaled SPCD policy options for workload w.
func TunedSPCDOptions(w workloads.Workload, m *topology.Machine) SPCDOptions {
	nominal := workloads.NominalCycles(w)
	cfg := TunedSPCDConfig(w, m)
	return SPCDOptions{
		Config:             &cfg,
		EvalIntervalCycles: max(nominal/8, 1),
		FirstEvalCycles:    max(nominal/12, 1),
	}
}

// Tuned constructs the named policy with periods scaled to the workload.
func Tuned(name string, w workloads.Workload, m *topology.Machine) (engine.Policy, error) {
	return TunedFrom(name, w, m, nil)
}

// TunedFrom is Tuned with a starting placement: initial, when non-nil, is
// the thread -> context placement the os policy and the detection policies
// (spcd, tlb, hwc) start from instead of the OS scatter. The random and
// oracle policies place threads themselves and ignore it.
func TunedFrom(name string, w workloads.Workload, m *topology.Machine, initial []int) (engine.Policy, error) {
	nominal := workloads.NominalCycles(w)
	switch name {
	case "os":
		p := NewOS()
		p.aff = append([]int(nil), initial...)
		p.churnInterval = max(nominal/3, 1)
		p.churnProb = 0.35
		return p, nil
	case "random":
		return NewRandom(), nil
	case "oracle":
		return NewOracle(), nil
	case "spcd":
		o := TunedSPCDOptions(w, m)
		o.InitialPlacement = initial
		return NewSPCD(o), nil
	case "tlb":
		return NewTLB(TLBOptions{
			ScanIntervalCycles: max(nominal/64, 1),
			EvalIntervalCycles: max(nominal/8, 1),
			InitialPlacement:   initial,
		}), nil
	case "hwc":
		return NewHWC(HWCOptions{
			EvalIntervalCycles: max(nominal/8, 1),
			InitialPlacement:   initial,
		}), nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q", name)
}
