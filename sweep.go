package spcd

import (
	"errors"
	"fmt"
	"strings"

	"spcd/internal/sweep"
	"spcd/internal/workloads"
)

// Sweep runs an evaluation grid — kernels × policies × reps at one class,
// or one Workload × policies × reps — on the deterministic parallel sweep
// runner (internal/sweep). This is the shape of every figure in the paper:
// cmd/npbsuite is a Sweep plus report tables.
//
// Determinism contract: the results (and any CSV rendered from them) are
// byte-identical for a given MasterSeed regardless of Parallelism and of
// the order in which experiments happen to finish. Each experiment's seed
// is DeriveSeed(MasterSeed, seed key); the seed key excludes the policy
// name so policies under comparison execute identical workload streams
// (the paper's §V-A methodology).
type Sweep struct {
	Machine *Machine

	// Workload, when set, is the one workload the sweep runs, in place of
	// a suite's kernels; Suite, Kernels, Class and Threads must then be
	// left unset. Its results land in ByKernel[Workload.Name()]. Its NewRun
	// must be pure: concurrent workers call it.
	Workload Workload

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
	// OnProgress, when set, is called from a single goroutine as
	// experiments finish, in completion order: done of total, the
	// finished config's key, and its error if it failed.
	OnProgress func(done, total int, key string, err error)

	// Options sets every experiment's engine (Shards composes with
	// Parallelism, so keep Parallelism × Shards near GOMAXPROCS), fault
	// plan and host-time collector; the determinism contract above covers
	// faulted and sharded sweeps too. Its Probe records the sweep's
	// progress events (sweep.start, exp.done per config in canonical
	// order, sweep.done).
	Options RunOptions
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
	kernels, work, err := s.work()
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

	configs := sweep.Product(work, policies, reps)
	runner := sweep.Runner{
		Machine:     s.Machine,
		MasterSeed:  s.MasterSeed,
		Parallelism: s.Parallelism,
		Options:     s.Options,
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
		Kernels:  kernels,
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

// work returns the names and configs of the workloads the sweep runs, one
// per kernel (or the one Workload), with the defaults applied.
func (s Sweep) work() ([]string, []sweep.Config, error) {
	if s.Workload != nil {
		var set []string
		if s.Suite != "" {
			set = append(set, "Suite")
		}
		if len(s.Kernels) > 0 {
			set = append(set, "Kernels")
		}
		if s.Class.Name != "" {
			set = append(set, "Class")
		}
		if s.Threads != 0 {
			set = append(set, "Threads")
		}
		if len(set) > 0 {
			return nil, nil, fmt.Errorf("spcd: Sweep.Workload excludes %s", strings.Join(set, ", "))
		}
		return []string{s.Workload.Name()}, []sweep.Config{{Workload: s.Workload}}, nil
	}
	suite := s.Suite
	if suite == "" {
		suite = "nas"
	}
	kernels := s.Kernels
	if len(kernels) == 0 {
		var err error
		if kernels, err = workloads.SuiteKernels(suite); err != nil {
			return nil, nil, err
		}
	}
	class := s.Class
	if class.Name == "" {
		class = ClassSmall
	}
	threads, err := orDefault("Sweep.Threads", s.Threads, 32)
	if err != nil {
		return nil, nil, err
	}
	work := make([]sweep.Config, len(kernels))
	for i, k := range kernels {
		work[i] = sweep.Config{Suite: suite, Kernel: k, Class: class, Threads: threads}
	}
	return append([]string(nil), kernels...), work, nil
}
