package main

import (
	"fmt"
	"hash/fnv"

	"spcd/internal/commmatrix"
	"spcd/internal/engine"
	"spcd/internal/policy"
	"spcd/internal/runtimeobs"
	"spcd/internal/scenario"
	"spcd/internal/sweep"
	"spcd/internal/topology"
	"spcd/internal/workloads"
)

// benchWorkload is one input set of the benchmark. A pass is a fixed list
// of simulator runs executed back to back (a closed loop with one client:
// the next run starts when the previous one returns); setup lists the same
// runs with the work taken out, which is what each run pays before it
// simulates anything.
type benchWorkload struct {
	name      string
	pass      func(seed int64) []job
	setup     func(seed int64) []job
	setupReps int // fewest set-up passes a measurement times
	// procs is the GOMAXPROCS the workload is measured with: 1 for the
	// sequential engine, whose garbage collection then shares its core, so
	// that a pass's host time is its whole CPU cost and the host probe,
	// timed on that same core, tracks it; the shard count for the sharded
	// engine.
	procs int
}

// scale fixes the input sizes. The benchmark runs benchScale; the tests
// run every workload at ClassTest scale.
type scale struct {
	small   workloads.Class // npb-small and npb-sharded
	hot     workloads.Class // npb-hot-ipi
	serve   workloads.Class // serve-churn tenants
	tenants int
	// setupReps is the fewest set-up passes a measurement times; setup_s
	// is their median, and set-up is short, so many are cheap and steady it.
	setupReps int
}

// benchScale keeps one pass of every workload to a few seconds, so a run of
// the benchmark's fixed length holds several passes. Each class keeps its
// footprint (page counts), thread count, kernels and policies and runs
// fewer accesses per thread: the ClassSmall grid takes about 38 s on a
// 2-core host, and npb-small runs an eighth of it. The serving scenario's
// schedule scales with the accesses, so a quarter of them still gives 82
// intervals; the shorter pass lets the host probe bracket it closely.
var benchScale = scale{
	small:     workloads.Class{Name: "small-eighth", PrivatePages: 48, BoundaryPages: 12, GlobalPages: 64, Accesses: 25_000, ComputePerMemop: 2},
	hot:       workloads.Class{Name: "test-long", PrivatePages: 8, BoundaryPages: 3, GlobalPages: 8, Accesses: 50_000, ComputePerMemop: 2},
	serve:     workloads.Class{Name: "small-quarter", PrivatePages: 48, BoundaryPages: 12, GlobalPages: 64, Accesses: 50_000, ComputePerMemop: 2},
	tenants:   24,
	setupReps: 9,
}

var testScale = scale{
	small:     workloads.ClassTest,
	hot:       workloads.ClassTest,
	serve:     workloads.ClassTest,
	tenants:   6,
	setupReps: 1,
}

const threads = 32

func benchWorkloads(sc scale) []*benchWorkload {
	npb := func(class workloads.Class, kernels, policies []string, shootdown topology.ShootdownMode, shards int) func(int64) []job {
		return func(seed int64) []job {
			mach := topology.DefaultXeon()
			mach.Shootdown = shootdown
			var jobs []job
			for _, k := range kernels {
				w, err := workloads.NewNPB(k, threads, class)
				if err != nil {
					panic(err) // kernel names are constants
				}
				// The seed internal/sweep derives for this config: policies
				// share it, so they run identical access streams.
				s := sweep.DeriveSeed(seed, sweep.Config{Suite: "nas", Kernel: k, Class: class, Threads: threads}.SeedKey())
				for _, p := range policies {
					jobs = append(jobs, &engineJob{name: k + "/" + p, mach: mach, w: w,
						policy: p, seed: s, shards: shards, newPolicy: tunedPolicy})
				}
			}
			return jobs
		}
	}
	serve := func(seed int64) scenario.Spec {
		spec := scenario.DefaultSpec(sc.tenants, sc.serve, seed)
		spec.Policy = "spcd"
		return spec
	}
	both := []string{"os", "spcd"}
	all := []*benchWorkload{
		{
			name:  "npb-small",
			pass:  npb(sc.small, workloads.NPBNames, both, topology.ShootdownNone, 0),
			procs: 1,
		},
		{
			name:  "npb-hot-ipi",
			pass:  npb(sc.hot, workloads.NPBNames, []string{"spcd"}, topology.ShootdownIPI, 0),
			procs: 1,
		},
		{
			name:  "npb-sharded",
			pass:  npb(sc.small, []string{"CG", "MG"}, both, topology.ShootdownNone, 2),
			procs: 2,
		},
		{
			name: "serve-churn",
			pass: func(seed int64) []job {
				return []job{&scenarioJob{name: "scenario/spcd", spec: serve(seed)}}
			},
			setup: func(seed int64) []job {
				return []job{&scenarioJob{name: "scenario/spcd/idle", spec: idleSpec(serve(seed))}}
			},
			procs: 1,
		},
	}
	for _, wl := range all {
		wl.setupReps = sc.setupReps
	}
	return all
}

// setupJobs returns the runs whose median time is setup_s: the workload's
// own setup list, or else every engine run of a pass on a workload whose
// threads do no work, with the same machine, policy and thread count.
func (wl *benchWorkload) setupJobs(seed int64) []job {
	if wl.setup != nil {
		return wl.setup(seed)
	}
	jobs := wl.pass(seed)
	for i, j := range jobs {
		e := *j.(*engineJob)
		e.w = idleWorkload{e.w}
		jobs[i] = &e
	}
	return jobs
}

// idleSpec compresses a serving schedule in time until each interval
// carries 64 accesses per thread: the same intervals, with the same tenants
// resident in each, and almost no simulated work. Shrinking the accesses
// alone would let every tenant finish in its first interval and end the
// schedule early. The schedule's times must be whole intervals, as
// scenario.DefaultSpec makes them.
func idleSpec(spec scenario.Spec) scenario.Spec {
	const perInterval = 64
	gap := uint64(spec.Tenants[0].Class.ComputePerMemop + workloads.NominalAccessCycles)
	budget := spec.IntervalCycles / gap // accesses per thread per interval
	interval := perInterval * gap
	at := func(t uint64) uint64 { return t / spec.IntervalCycles * interval }
	tenants := make([]scenario.Tenant, len(spec.Tenants))
	for i, t := range spec.Tenants {
		t.ArriveAt = at(t.ArriveAt)
		if t.DepartAt != 0 {
			t.DepartAt = at(t.DepartAt)
		}
		t.Phases = append([]scenario.Phase(nil), t.Phases...)
		for p := range t.Phases {
			t.Phases[p].AtCycles = at(t.Phases[p].AtCycles)
		}
		t.Class.Accesses = t.Class.Accesses * perInterval / budget
		tenants[i] = t
	}
	spec.Tenants = tenants
	spec.IntervalCycles = interval
	return spec
}

// job is one simulator run.
type job interface {
	key() string
	run(traced bool, readNs float64) (jobResult, error)
}

type jobResult struct {
	accesses  uint64 // simulated accesses
	digest    uint64 // hash of the run's simulated output
	runNanos  int64  // host time of the engine.Run or scenario.Run call
	intervals int    // serving intervals (scenario runs)
	layers    *layerSums
}

// policyFactory builds a run's policy; onEvaluate, when non-nil, is
// installed as SPCD's OnEvaluate hook.
type policyFactory func(name string, w workloads.Workload, m *topology.Machine,
	onEvaluate func(uint64, *commmatrix.Matrix)) (engine.Policy, error)

// tunedPolicy builds the policies internal/sweep runs.
func tunedPolicy(name string, w workloads.Workload, m *topology.Machine,
	onEvaluate func(uint64, *commmatrix.Matrix)) (engine.Policy, error) {
	if name == "spcd" && onEvaluate != nil {
		o := policy.TunedSPCDOptions(w, m)
		o.OnEvaluate = onEvaluate
		return policy.NewSPCD(o), nil
	}
	return policy.Tuned(name, w, m)
}

type engineJob struct {
	name      string
	mach      *topology.Machine
	w         workloads.Workload
	policy    string
	seed      int64
	shards    int
	newPolicy policyFactory
}

func (j *engineJob) key() string { return j.name }

func (j *engineJob) run(traced bool, readNs float64) (jobResult, error) {
	cfg := engine.Config{Machine: j.mach, Workload: j.w, Seed: j.seed, Shards: j.shards}
	var tr *runTrace
	var onEvaluate func(uint64, *commmatrix.Matrix)
	if traced {
		tr = newRunTrace(j.w.NumThreads(), j.shards == 0)
		onEvaluate = tr.onEvaluate
	}
	pol, err := j.newPolicy(j.policy, j.w, j.mach, onEvaluate)
	if err != nil {
		return jobResult{}, fmt.Errorf("%s: %w", j.name, err)
	}
	cfg.Policy = pol
	var rt *runtimeobs.Collector
	if traced {
		cfg.Workload = tracedWorkload{Workload: j.w, tr: tr}
		cfg.Policy = tracedPolicy{Policy: pol, tr: tr}
		if j.shards > 0 {
			rt = runtimeobs.New()
			cfg.Runtime = rt.Proc("run " + j.name)
		}
	}
	start := nanos()
	m, err := engine.Run(cfg)
	end := nanos()
	if err != nil {
		return jobResult{}, fmt.Errorf("%s: %w", j.name, err)
	}
	res := jobResult{accesses: m.Cache.Accesses, digest: digestMetrics(m), runNanos: end - start}
	if traced {
		res.layers, err = j.layers(tr, m, start, end, rt, readNs)
	}
	return res, err
}

// digestMetrics hashes every field of a run's metrics, the detected matrix
// included.
func digestMetrics(m engine.Metrics) uint64 {
	h := fnv.New64a()
	mat := m.CommMatrix
	m.CommMatrix = nil
	fmt.Fprintf(h, "%+v", m)
	if mat != nil {
		// Writes to a hash cannot fail.
		_ = mat.WriteCSV(h)
	}
	return h.Sum64()
}

type scenarioJob struct {
	name string
	spec scenario.Spec
}

func (j *scenarioJob) key() string { return j.name }

func (j *scenarioJob) run(traced bool, readNs float64) (jobResult, error) {
	start := nanos()
	rep, err := scenario.Run(j.spec)
	end := nanos()
	if err != nil {
		return jobResult{}, fmt.Errorf("%s: %w", j.name, err)
	}
	var acc uint64
	for _, t := range rep.Tenants {
		acc += t.Accesses
	}
	h := fnv.New64a()
	h.Write([]byte(rep.Render()))
	res := jobResult{accesses: acc, digest: h.Sum64(), runNanos: end - start, intervals: rep.Intervals}
	if traced {
		// The scenario builds its engine runs internally, out of reach of
		// the decorators: only the run as a whole is measured.
		res.layers = &layerSums{runs: 1, accesses: float64(acc), tracedNanos: float64(end-start) - readNs,
			intervals: int64(rep.Intervals)}
	}
	return res, nil
}

// idleWorkload is the workload with the work taken out: its runs are
// constructed as usual, then every thread ends at once.
type idleWorkload struct{ workloads.Workload }

func (w idleWorkload) NewRun(seed int64) workloads.Run {
	w.Workload.NewRun(seed)
	return idleRun{}
}

type idleRun struct{}

func (idleRun) Next(int, []workloads.Access) int { return 0 }
