package engine_test

import (
	"reflect"
	"testing"

	"spcd/internal/commmatrix"
	"spcd/internal/engine"
	"spcd/internal/faultinject"
	"spcd/internal/obs"
	"spcd/internal/policy"
	"spcd/internal/topology"
	"spcd/internal/workloads"
)

// runShardedFor runs one sharded simulation under a freshly constructed
// policy (policies are single-run objects).
func runShardedFor(t *testing.T, w workloads.Workload, polName string, shards int, plan *faultinject.Plan) engine.Metrics {
	t.Helper()
	mach := topology.DefaultXeon()
	pol, err := policy.Tuned(polName, w, mach)
	if err != nil {
		t.Fatal(err)
	}
	var inj *faultinject.Injector
	if plan != nil {
		inj = faultinject.NewInjector(*plan, 7)
	}
	m, err := engine.Run(engine.Config{
		Machine:  mach,
		Workload: w,
		Policy:   pol,
		Seed:     7,
		Shards:   shards,
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestShardedWorkerCountInvariance is the core byte-identity contract of
// the epoch-sharded engine: the full Metrics struct (counters, energy,
// detected communication matrix) must be identical at every worker count.
func TestShardedWorkerCountInvariance(t *testing.T) {
	for _, polName := range []string{"os", "spcd"} {
		w, err := workloads.NewNPB("CG", 16, workloads.ClassTest)
		if err != nil {
			t.Fatal(err)
		}
		base := runShardedFor(t, w, polName, 1, nil)
		for _, shards := range []int{2, 3, 4, 8, 64} {
			got := runShardedFor(t, w, polName, shards, nil)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s: shards=%d metrics differ from shards=1:\n  1: %+v\n  %d: %+v",
					polName, shards, base, shards, got)
			}
		}
	}
}

// TestShardedWorkerCountInvarianceWithFaults extends the contract to chaos
// runs: per-thread stall streams and barrier-ordered fault resolution must
// keep injected runs worker-count-invariant too.
func TestShardedWorkerCountInvarianceWithFaults(t *testing.T) {
	plan := faultinject.CanonicalPlan(3)
	w, err := workloads.NewNPB("CG", 16, workloads.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	base := runShardedFor(t, w, "spcd", 1, &plan)
	for _, shards := range []int{2, 4, 8} {
		got := runShardedFor(t, w, "spcd", shards, &plan)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("faulted: shards=%d metrics differ from shards=1:\n  1: %+v\n  %d: %+v",
				shards, base, shards, got)
		}
	}
}

// TestShardedRunsToCompletion checks basic sanity of the sharded results:
// all work retired, counters populated, nonzero execution time.
func TestShardedRunsToCompletion(t *testing.T) {
	w, err := workloads.NewNPB("SP", 8, workloads.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	m := runShardedFor(t, w, "os", 4, nil)
	wantAccesses := uint64(8) * w.AccessesPerThread()
	if m.Cache.Accesses < wantAccesses {
		t.Errorf("cache accesses = %d, want >= %d (parallel phase incomplete)",
			m.Cache.Accesses, wantAccesses)
	}
	if m.ExecCycles == 0 || m.Instructions == 0 {
		t.Errorf("empty run: cycles=%d instructions=%d", m.ExecCycles, m.Instructions)
	}
	if m.VM.Accesses == 0 || m.VM.FirstTouchFaults == 0 {
		t.Errorf("vm counters empty: %+v", m.VM)
	}
}

// TestShardedDefaultIsSequential pins the dispatch contract: Shards=0 runs
// the sequential engine, bit-for-bit (same Metrics as an explicit
// sequential run of the same config).
func TestShardedDefaultIsSequential(t *testing.T) {
	w, err := workloads.NewNPB("CG", 8, workloads.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	mach := topology.DefaultXeon()
	runWith := func(shards int) engine.Metrics {
		pol, err := policy.Tuned("spcd", w, mach)
		if err != nil {
			t.Fatal(err)
		}
		m, err := engine.Run(engine.Config{Machine: mach, Workload: w, Policy: pol, Seed: 11, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if !reflect.DeepEqual(runWith(0), runWith(0)) {
		t.Fatal("sequential engine not deterministic")
	}
}

// tickLog keeps the OS scatter placement and records, at every tick, the
// tick's time and how many translations the MMU has served so far.
type tickLog struct {
	env *engine.Env
	log [][2]uint64
}

func (p *tickLog) Name() string                    { return "ticklog" }
func (p *tickLog) Init(env *engine.Env) error      { p.env = env; return nil }
func (p *tickLog) InitialAffinity() []int          { return policy.Scatter(p.env.Machine, p.env.NumThreads) }
func (p *tickLog) Overheads() engine.Overheads     { return engine.Overheads{} }
func (p *tickLog) FinalMatrix() *commmatrix.Matrix { return nil }
func (p *tickLog) Tick(now uint64) []int {
	p.log = append(p.log, [2]uint64{now, p.env.AS.Stats().Accesses})
	return nil
}

// TestShardedEmptyEpochTicksMatchSequential: serial init leaves every
// thread clock past many tick boundaries, so the epoch engine runs many
// empty epochs. Their ticks must fire before any parallel access, as in the
// sequential engine: every tick up to the end of serial init sees the same
// MMU access count at Shards 1 as at Shards 0.
func TestShardedEmptyEpochTicksMatchSequential(t *testing.T) {
	w, err := workloads.NewNPB("CG", 8, workloads.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int, probe *obs.Probe) [][2]uint64 {
		p := &tickLog{}
		if _, err := engine.Run(engine.Config{Machine: topology.DefaultXeon(), Workload: w,
			Policy: p, Seed: 1, Shards: shards, Probe: probe}); err != nil {
			t.Fatal(err)
		}
		return p.log
	}
	probe := obs.New(obs.Options{})
	seq, sharded := run(0, probe), run(1, nil)
	var initEnd uint64
	for _, ev := range probe.Events() {
		if ev.Name == "init.done" {
			initEnd = ev.Time
		}
	}
	n := 0
	for n < len(seq) && seq[n][0] <= initEnd {
		n++
	}
	if n < 2 {
		t.Fatalf("%d ticks before the end of serial init at cycle %d; the test needs several", n, initEnd)
	}
	if len(sharded) < n {
		t.Fatalf("sharded run logged %d ticks, sequential %d before the first parallel access", len(sharded), n)
	}
	for i := 0; i < n; i++ {
		if sharded[i] != seq[i] {
			t.Fatalf("tick %d of %d before the first parallel access: sequential (cycle, accesses) %v, sharded %v",
				i, n, seq[i], sharded[i])
		}
	}
}
