package spcd

import (
	"errors"

	"spcd/internal/obs"
	"spcd/internal/sweep"
	"spcd/internal/workloads"
)

// Sweep runs an evaluation grid — kernels × policies × reps at one class —
// on the deterministic parallel sweep runner (internal/sweep). This is the
// shape of every figure in the paper: cmd/npbsuite is a Sweep plus report
// tables.
//
// Determinism contract: the results (and any CSV rendered from them) are
// byte-identical for a given MasterSeed regardless of Parallelism and of
// the order in which experiments happen to finish. Each experiment's seed
// is DeriveSeed(MasterSeed, seed key); the seed key excludes the policy
// name so policies under comparison execute identical workload streams
// (the paper's §V-A methodology).
type Sweep struct {
	Machine *Machine

	// Suite selects the workload family: "nas" (default) or "parsec".
	Suite string
	// Kernels defaults to every kernel of the suite (NPBNames for nas).
	Kernels []string
	// Class defaults to ClassSmall.
	Class Class
	// Threads defaults to 32, the paper's thread count; negative is an
	// error.
	Threads int
	// Policies defaults to PolicyNames.
	Policies []string
	// Reps defaults to 3 (the paper uses 10); negative is an error.
	Reps int

	// MasterSeed feeds the per-experiment seed derivation.
	MasterSeed int64
	// Parallelism bounds concurrent experiments: 0 selects GOMAXPROCS, 1
	// runs sequentially, negative is an error. Results do not depend on it.
	Parallelism int
	// Shards selects each experiment's engine: 0 (the default) runs the
	// sequential engine; >= 1 runs the epoch-sharded engine with that many
	// intra-run workers; negative is an error. Sharded results are
	// byte-identical for every value >= 1 (but intentionally differ from
	// the sequential engine; see DESIGN.md §13). The total worker count is
	// roughly Parallelism × Shards, so keep the product near GOMAXPROCS.
	Shards int

	// Seeder, when set, overrides the derived per-run seed. It must be a
	// pure function of its arguments; the derivation exists so results
	// stay independent of scheduling.
	Seeder func(kernel, policy string, rep int) int64
	// Observe, when set, may return a fresh Probe per experiment (called
	// from concurrent workers; one probe observes exactly one run).
	Observe func(kernel, policy string, rep int) *Probe
	// Probe, when set, records the sweep's progress events (sweep.start,
	// exp.done per config in canonical order, sweep.done).
	Probe *Probe
	// OnProgress, when set, is called from a single goroutine as
	// experiments finish, in completion order: done of total, the
	// finished config's key, and its error if it failed.
	OnProgress func(done, total int, key string, err error)

	// Faults, when set, injects the plan's faults into every experiment of
	// the grid (each run gets its own deterministic injector derived from
	// the plan and the run seed — the determinism contract above covers
	// faulted sweeps too). Nil or an inactive plan runs the grid fault-free.
	Faults *FaultPlan

	// Runtime, when set, records host wall-clock spans for the sweep pool
	// and every run in it (see RuntimeCollector). Strictly one-way, so
	// results are unchanged; nil disables at zero cost.
	Runtime *RuntimeCollector
}

// SweepResults holds a sweep's outcome grouped per kernel, plus the
// per-config errors in canonical (kernel-major, policy, rep-minor) order.
type SweepResults struct {
	// Kernels in sweep order.
	Kernels []string
	// ByKernel maps each kernel to its policy × rep results, ready for
	// the same reporting used by single-workload experiments.
	ByKernel map[string]*Results
	// Keys and Errs are aligned with the sweep's canonical config order;
	// Errs entries are nil for successful experiments.
	Keys []string
	Errs []error
}

// FirstErr returns the first per-config error in canonical order, or nil.
func (s *SweepResults) FirstErr() error {
	for _, err := range s.Errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run executes the sweep. Per-experiment failures (including panics in a
// workload or policy) do not abort the sweep; they surface via FirstErr
// and the Errs slice, and the failed experiment's metrics stay zero.
func (s Sweep) Run() (*SweepResults, error) {
	if s.Machine == nil {
		return nil, errors.New("spcd: sweep needs a Machine")
	}
	suite := s.Suite
	if suite == "" {
		suite = "nas"
	}
	kernels := s.Kernels
	if len(kernels) == 0 {
		var err error
		if kernels, err = workloads.SuiteKernels(suite); err != nil {
			return nil, err
		}
	}
	class := s.Class
	if class.Name == "" {
		class = ClassSmall
	}
	threads, err := orDefault("Sweep.Threads", s.Threads, 32)
	if err != nil {
		return nil, err
	}
	policies := s.Policies
	if len(policies) == 0 {
		policies = PolicyNames
	}
	reps, err := orDefault("Sweep.Reps", s.Reps, 3)
	if err != nil {
		return nil, err
	}

	configs := sweep.Product(suite, kernels, class, threads, policies, reps)
	runner := sweep.Runner{
		Machine:     s.Machine,
		MasterSeed:  s.MasterSeed,
		Parallelism: s.Parallelism,
		Probe:       s.Probe,
		FaultPlan:   s.Faults,
		Shards:      s.Shards,
		Runtime:     s.Runtime,
	}
	if s.Seeder != nil {
		//lint:ignore determinism-flow Seeder is the user-supplied seed derivation itself; its output becomes the run seed, so determinism is definitional here.
		runner.Seeder = func(c sweep.Config) int64 { return s.Seeder(c.Kernel, c.Policy, c.Rep) }
	}
	if s.Observe != nil {
		//lint:ignore determinism-flow Observe is a user-supplied probe factory invoked once per run before simulation; probes record events, they do not steer them.
		runner.Observe = func(c sweep.Config) *obs.Probe { return s.Observe(c.Kernel, c.Policy, c.Rep) }
	}
	if s.OnProgress != nil {
		done := 0
		runner.OnResult = func(r sweep.Result) {
			done++
			s.OnProgress(done, len(configs), r.Config.Key(), r.Err)
		}
	}
	rs, err := runner.Run(configs)
	if err != nil {
		return nil, err
	}

	out := &SweepResults{
		Kernels:  append([]string(nil), kernels...),
		ByKernel: make(map[string]*Results, len(kernels)),
		Keys:     make([]string, len(rs)),
		Errs:     make([]error, len(rs)),
	}
	i := 0
	for _, kernel := range kernels {
		res := &Results{
			Workload: kernel,
			ByPolicy: make(map[string][]Metrics, len(policies)),
			order:    append([]string(nil), policies...),
		}
		for _, pol := range policies {
			ms := make([]Metrics, reps)
			for r := 0; r < reps; r++ {
				out.Keys[i] = rs[i].Config.Key()
				out.Errs[i] = rs[i].Err
				ms[r] = rs[i].Metrics
				i++
			}
			res.ByPolicy[pol] = ms
		}
		out.ByKernel[kernel] = res
	}
	return out, nil
}

// DeriveSweepSeed exposes the sweep runner's (masterSeed, configKey) → run
// seed derivation, so external tools can reproduce a single experiment out
// of an archived sweep without re-running the grid.
func DeriveSweepSeed(masterSeed int64, configKey string) int64 {
	return sweep.DeriveSeed(masterSeed, configKey)
}
