// Package sweep is the deterministic parallel experiment runner behind the
// paper's evaluation grids (kernel × class × policy, Figs. 8-11). A bounded
// worker pool fans independent experiment configurations out over
// goroutines; every experiment gets its own engine/VM/cache instances
// (engine.Run constructs them per call) and a run seed derived purely from
// (MasterSeed, config key), so the collected results are byte-identical
// regardless of the worker count or the order in which workers finish.
//
// Determinism argument (see DESIGN.md §10):
//
//   - No shared mutable simulation state. Each worker executes engine.Run,
//     which builds a fresh address space, cache hierarchy, workload run and
//     policy instance. The only cross-goroutine writes are to disjoint
//     elements of the pre-sized results slice, indexed by the config's
//     canonical position (enforced by the sweep-parallel spcdlint rule).
//
//   - Seeds are positional, not temporal. DeriveSeed hashes the config's
//     identity; nothing about scheduling, completion order, or worker count
//     feeds the RNG. Policies under comparison share a stream: the seed key
//     deliberately excludes the policy name, mirroring the paper's
//     methodology of evaluating every mapping policy on identical workload
//     executions (§V-A).
//
//   - Collection is canonical. Results are returned in the order configs
//     were given, and sweep progress events (sweep.start / exp.done /
//     sweep.done) are emitted in canonical config order with the config
//     index as their virtual timestamp — never in completion order.
//
//   - Failures are contained. A panicking or erroring experiment records a
//     per-config error (PanicError carries the stack) and the rest of the
//     sweep proceeds.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"spcd/internal/engine"
	"spcd/internal/faultinject"
	"spcd/internal/obs"
	"spcd/internal/policy"
	"spcd/internal/runtimeobs"
	"spcd/internal/topology"
	"spcd/internal/workloads"
)

// Config identifies one experiment of a sweep. The descriptive fields
// (Suite, Kernel, Class, Threads) name a workload to construct; Workload,
// when non-nil, overrides them with a caller-supplied instance (used by
// spcd.Sweep's Workload and by suites the descriptive fields cannot
// express).
// A shared Workload instance must have a pure NewRun: it is called from
// concurrent workers.
type Config struct {
	Suite   string // "nas" (default), "parsec" or "pc"
	Kernel  string
	Class   workloads.Class
	Threads int
	Policy  string
	Rep     int

	Workload workloads.Workload
}

// suiteOrDefault returns the suite with the default applied.
func (c Config) suiteOrDefault() string {
	if c.Suite == "" {
		return "nas"
	}
	return c.Suite
}

// Key renders the config's canonical identity, unique within a sweep:
// suite/kernel/class/threads/policy/rep.
func (c Config) Key() string {
	if c.Workload != nil {
		return fmt.Sprintf("%s/%s/r%d", c.Workload.Name(), c.Policy, c.Rep)
	}
	return fmt.Sprintf("%s/%s/%s/t%d/%s/r%d",
		c.suiteOrDefault(), c.Kernel, c.Class.Name, c.Threads, c.Policy, c.Rep)
}

// SeedKey is Key without the policy component: policies under comparison
// run on identical workload streams (the paper normalizes every policy to
// the OS baseline measured on the same executions), so the derived seed
// must not depend on the policy name.
func (c Config) SeedKey() string {
	if c.Workload != nil {
		return fmt.Sprintf("%s/r%d", c.Workload.Name(), c.Rep)
	}
	return fmt.Sprintf("%s/%s/%s/t%d/r%d",
		c.suiteOrDefault(), c.Kernel, c.Class.Name, c.Threads, c.Rep)
}

// build constructs the config's workload.
func (c Config) build() (workloads.Workload, error) {
	if c.Workload != nil {
		return c.Workload, nil
	}
	return workloads.ByName(c.suiteOrDefault(), c.Kernel, c.Threads, c.Class)
}

// Product expands the workloads × policies × reps grid in canonical sweep
// order: workload-major, policy-middle, rep-minor. Each element of work
// names one workload (its Policy and Rep are overwritten). This is the
// order results come back in and the order reports render.
func Product(work []Config, policies []string, reps int) []Config {
	out := make([]Config, 0, len(work)*len(policies)*reps)
	for _, c := range work {
		for _, p := range policies {
			for r := 0; r < reps; r++ {
				c.Policy, c.Rep = p, r
				out = append(out, c)
			}
		}
	}
	return out
}

// DeriveSeed maps (master, key) to a run seed: FNV-1a over the key, the
// master seed folded in through a golden-ratio multiply, and a splitmix64
// finalizer so that adjacent master seeds and near-identical keys still
// land on well-separated streams. The function is pure — the same pair
// yields the same seed on every platform and in every run — which is what
// makes sweep results independent of worker count and completion order.
func DeriveSeed(master int64, key string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	z := h ^ (uint64(master) * 0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// PanicError is the recorded failure of an experiment whose run panicked.
// The sweep continues; the panic value and goroutine stack are preserved
// here for the report, together with everything needed to replay the failing
// run in isolation: the config's derived seed and the digest of the fault
// plan in effect (empty when the sweep ran fault-free).
type PanicError struct {
	Key         string
	Seed        int64
	FaultDigest string
	Value       any
	Stack       []byte
}

// Error renders the panic with its config key and replay coordinates (seed,
// fault-plan digest); the stack is available on the struct.
func (e *PanicError) Error() string {
	if e.FaultDigest != "" {
		return fmt.Sprintf("sweep: %s: panic (seed %d, faults %s): %v",
			e.Key, e.Seed, e.FaultDigest, e.Value)
	}
	return fmt.Sprintf("sweep: %s: panic (seed %d): %v", e.Key, e.Seed, e.Value)
}

// Result is the outcome of one config: its metrics, or the error that
// stopped it. Exactly one of Metrics/Err is meaningful.
type Result struct {
	Config Config
	Seed   int64
	// Metrics is the run outcome (zero value when Err is non-nil).
	Metrics engine.Metrics
	// Probe is the per-experiment probe returned by Runner.Observe, nil
	// otherwise.
	Probe *obs.Probe
	// Faults counts the injected faults per site, in registry order (nil
	// when the sweep ran without a fault plan). Part of the determinism
	// contract: same seed and plan give the same counts.
	Faults []faultinject.SiteCount
	Err    error
}

// FirstErr returns the first error in canonical config order, or nil.
// "First" is deterministic: it is the earliest failed config in the sweep
// grid, not the first failure in time.
func FirstErr(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}

// Runner executes sweeps. The zero value is not usable: Machine is
// required.
type Runner struct {
	Machine *topology.Machine

	// MasterSeed feeds DeriveSeed together with each config's SeedKey.
	MasterSeed int64

	// Parallelism bounds the worker pool: 0 selects GOMAXPROCS, 1 runs the
	// sweep sequentially (today's single-stream path), negative is an
	// error. Results do not depend on it.
	Parallelism int

	// Seeder overrides the derived seed per config (nil selects
	// DeriveSeed(MasterSeed, c.SeedKey())). It must be pure: workers call
	// it concurrently, and determinism requires the seed be a function of
	// the config alone.
	Seeder func(Config) int64

	// Observe, when set, is called once per experiment from its worker and
	// may return a fresh probe to record that run (nil leaves the run
	// unobserved). One probe observes exactly one run.
	Observe func(Config) *obs.Probe

	// OnResult, when set, is called from a single collector goroutine as
	// experiments finish — completion order, for live progress only.
	OnResult func(Result)

	// Options holds every run's engine (Shards, which composes with
	// Parallelism: total goroutines ≈ Parallelism × Shards), fault plan and
	// host-time collector. Each config's injector is seeded from (plan seed,
	// run seed), so fault timing is as positional as the run seeds are. The
	// collector gets the pool's lanes (per-worker occupancy, queue latency)
	// and a proc per run; the runner only hands stamps in and never reads
	// host time back, which the runtimeobs-isolation lint rule certifies.
	// Options.Probe records the sweep's progress events: sweep.start at
	// virtual time 0, one exp.done per config at time index+1 (in canonical
	// order, so same-sweep traces are byte-identical regardless of
	// scheduling), and sweep.done after the last config.
	Options engine.RunOptions
}

// Workers returns how many workers a pool of the given parallelism starts
// for jobs jobs: 0 selects GOMAXPROCS, and the count is clamped to
// [1, jobs]. A negative parallelism is an error. Runner.Run and
// scenario.RunJobs both size their pools with it.
func Workers(parallelism, jobs int) (int, error) {
	if parallelism < 0 {
		return 0, fmt.Errorf("sweep: negative Parallelism %d", parallelism)
	}
	if parallelism == 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return max(min(parallelism, jobs), 1), nil
}

// Run executes every config and returns the results in the order the
// configs were given. Per-config failures (including panics) are recorded
// in Result.Err and do not stop the sweep; use FirstErr to surface them.
func (r *Runner) Run(configs []Config) ([]Result, error) {
	if r.Machine == nil {
		return nil, errors.New("sweep: Machine is required")
	}
	workers, err := Workers(r.Parallelism, len(configs))
	if err != nil {
		return nil, err
	}
	if err := r.Options.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}

	results := make([]Result, len(configs))
	r.Options.Probe.Emit(0, "sweep", "sweep.start", -1, obs.Uint("configs", uint64(len(configs))))

	// Host-time pool lanes: one per worker (experiment spans carry the
	// config index) plus the pool-wide run span. All nil-safe no-ops when
	// Runtime is detached.
	rtProc := r.Options.Runtime.Proc("sweep")
	rtProc.SetMeta("kind", "sweep")
	rtProc.SetMetaInt("workers", int64(workers))
	rtProc.SetMetaInt("experiments", int64(len(configs)))
	rtPool := rtProc.Lane("sweep")
	rtLanes := make([]*runtimeobs.Lane, workers)
	for i := range rtLanes {
		rtLanes[i] = rtProc.Lane(fmt.Sprintf("worker %d", i))
	}
	rtStart := r.Options.Runtime.Now()

	jobs := make(chan int)
	done := make(chan int)
	collected := make(chan struct{})

	// Collector: announces completions as they happen (OnResult) and walks
	// the canonical prefix for progress events, so the sweep probe records
	// exp.done in config order no matter which worker finished first.
	go func() {
		defer close(collected)
		completed := make([]bool, len(configs))
		next := 0
		for i := range done {
			completed[i] = true
			if r.OnResult != nil {
				r.OnResult(results[i])
			}
			for next < len(configs) && completed[next] {
				res := &results[next]
				if res.Err != nil {
					r.Options.Probe.Emit(uint64(next)+1, "sweep", "exp.done", -1,
						obs.Str("key", res.Config.Key()), obs.Str("err", res.Err.Error()))
				} else {
					r.Options.Probe.Emit(uint64(next)+1, "sweep", "exp.done", -1,
						obs.Str("key", res.Config.Key()))
				}
				next++
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane *runtimeobs.Lane) {
			defer wg.Done()
			for i := range jobs {
				expStart := r.Options.Runtime.Now()
				results[i] = r.runOne(configs[i])
				lane.SpanAt(runtimeobs.SpanExperiment, expStart, r.Options.Runtime.Now(), -1, int64(i))
				done <- i
			}
		}(rtLanes[w])
	}
	for i := range configs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(done)
	<-collected

	ok, failed := 0, 0
	for i := range results {
		if results[i].Err != nil {
			failed++
		} else {
			ok++
		}
	}
	r.Options.Probe.Emit(uint64(len(configs))+1, "sweep", "sweep.done", -1,
		obs.Uint("ok", uint64(ok)), obs.Uint("failed", uint64(failed)))
	rtPool.SpanAt(runtimeobs.SpanRun, rtStart, r.Options.Runtime.Now(), -1, int64(len(configs)))
	return results, nil
}

// runOne executes a single experiment in isolation: fresh workload, policy,
// and (inside engine.Run) fresh VM and cache hierarchy. A panic anywhere in
// the run is captured into the result.
func (r *Runner) runOne(c Config) (res Result) {
	res.Config = c
	digest := ""
	if r.Options.Faults != (faultinject.Plan{}) {
		digest = r.Options.Faults.Digest()
	}
	defer func() {
		if v := recover(); v != nil {
			res.Err = &PanicError{Key: c.Key(), Seed: res.Seed,
				FaultDigest: digest, Value: v, Stack: debug.Stack()}
		}
	}()
	seed := int64(0)
	if r.Seeder != nil {
		seed = r.Seeder(c)
	} else {
		seed = DeriveSeed(r.MasterSeed, c.SeedKey())
	}
	res.Seed = seed

	w, err := c.build()
	if err != nil {
		res.Err = fmt.Errorf("sweep: %s: %w", c.Key(), err)
		return res
	}
	p, err := policy.Tuned(c.Policy, w, r.Machine)
	if err != nil {
		res.Err = fmt.Errorf("sweep: %s: %w", c.Key(), err)
		return res
	}
	// The run's own probe replaces the sweep's progress probe.
	o := r.Options
	o.Probe = nil
	if r.Observe != nil {
		o.Probe = r.Observe(c)
	}
	res.Probe = o.Probe
	// Each observed run gets its own host-time proc so its engine lanes
	// (shard workers, barrier) group separately in the merged trace.
	cfg := o.Config(r.Machine, w, p, seed, func() string { return "run " + c.Key() })
	m, err := engine.Run(cfg)
	if err != nil {
		res.Err = fmt.Errorf("sweep: %s: %w", c.Key(), err)
		return res
	}
	res.Metrics = m
	res.Faults = cfg.Injector.SiteCounts()
	return res
}
