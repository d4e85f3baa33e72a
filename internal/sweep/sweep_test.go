package sweep

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"spcd/internal/engine"
	"spcd/internal/faultinject"
	"spcd/internal/obs"
	"spcd/internal/topology"
	"spcd/internal/workloads"
)

func testConfigs(t *testing.T) []Config {
	t.Helper()
	return Product([]Config{
		{Suite: "nas", Kernel: "CG", Class: workloads.ClassTest, Threads: 8},
		{Suite: "nas", Kernel: "SP", Class: workloads.ClassTest, Threads: 8},
	}, []string{"os", "spcd"}, 2)
}

// render flattens results into a comparable byte string: canonical order,
// every metric the reports read, and the seed that produced it.
func render(t *testing.T, results []Result) string {
	t.Helper()
	var b strings.Builder
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Config.Key(), r.Err)
		}
		m := r.Metrics
		fmt.Fprintf(&b, "%s seed=%d cycles=%d instr=%d l2=%g l3=%g c2c=%d mig=%d\n",
			r.Config.Key(), r.Seed, m.ExecCycles, m.Instructions,
			m.L2MPKI, m.L3MPKI, m.Cache.C2CTotal(), m.Migrations)
	}
	return b.String()
}

// TestByteIdenticalAcrossWorkerCounts is the runner's core contract: the
// same sweep at parallelism 1, 3 and 16 returns identical results in
// identical order.
func TestByteIdenticalAcrossWorkerCounts(t *testing.T) {
	mach := topology.DefaultXeon()
	var base string
	for _, workers := range []int{1, 3, 16} {
		r := Runner{Machine: mach, MasterSeed: 42, Parallelism: workers}
		results, err := r.Run(testConfigs(t))
		if err != nil {
			t.Fatal(err)
		}
		got := render(t, results)
		if base == "" {
			base = got
			continue
		}
		if got != base {
			t.Errorf("parallelism %d diverged:\nbase:\n%s\ngot:\n%s", workers, base, got)
		}
	}
	if !strings.Contains(base, "nas/CG/test/t8/os/r0") {
		t.Fatalf("unexpected render output:\n%s", base)
	}
}

// TestResultsInCanonicalOrder checks collection order matches config order
// even when later configs finish first (many workers, uneven run lengths).
func TestResultsInCanonicalOrder(t *testing.T) {
	mach := topology.DefaultXeon()
	configs := testConfigs(t)
	r := Runner{Machine: mach, Parallelism: len(configs)}
	results, err := r.Run(configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(configs) {
		t.Fatalf("got %d results for %d configs", len(results), len(configs))
	}
	for i := range results {
		if results[i].Config.Key() != configs[i].Key() {
			t.Errorf("result %d is %s, want %s", i, results[i].Config.Key(), configs[i].Key())
		}
	}
}

// panicWorkload explodes when the engine starts generating accesses.
type panicWorkload struct{ workloads.Workload }

func (p panicWorkload) NewRun(seed int64) workloads.Run { panic("injected failure") }

// TestPanicCapture proves a crashing config reports an error without
// killing the sweep: every other config still completes.
func TestPanicCapture(t *testing.T) {
	mach := topology.DefaultXeon()
	w, err := workloads.NewNPB("CG", 8, workloads.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	configs := []Config{
		{Kernel: "CG", Class: workloads.ClassTest, Threads: 8, Policy: "os"},
		{Workload: panicWorkload{w}, Policy: "os"},
		{Kernel: "SP", Class: workloads.ClassTest, Threads: 8, Policy: "os"},
	}
	r := Runner{Machine: mach, Parallelism: 2}
	results, err := r.Run(configs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy configs failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("panicking config reported no error")
	}
	var pe *PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("want a *PanicError, got %T: %v", results[1].Err, results[1].Err)
	}
	if pe.Value != "injected failure" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = value %v, %d stack bytes", pe.Value, len(pe.Stack))
	}
	if FirstErr(results) != results[1].Err {
		t.Errorf("FirstErr = %v, want the panic", FirstErr(results))
	}
	if got := results[0].Metrics.ExecCycles; got == 0 {
		t.Error("config before the panic produced no metrics")
	}
	if got := results[2].Metrics.ExecCycles; got == 0 {
		t.Error("config after the panic produced no metrics")
	}
}

// TestPanicCaptureReplayCoordinates proves a captured panic records what is
// needed to replay the failing run in isolation — the config's derived seed
// and the fault-plan digest — and that the panicking config does not poison
// the canonical-order collection around it.
func TestPanicCaptureReplayCoordinates(t *testing.T) {
	mach := topology.DefaultXeon()
	w, err := workloads.NewNPB("CG", 8, workloads.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.CanonicalPlan(99)
	configs := []Config{
		{Kernel: "CG", Class: workloads.ClassTest, Threads: 8, Policy: "os"},
		{Workload: panicWorkload{w}, Policy: "os", Rep: 1},
		{Kernel: "SP", Class: workloads.ClassTest, Threads: 8, Policy: "os"},
	}
	r := Runner{Machine: mach, MasterSeed: 7, Parallelism: len(configs), Options: engine.RunOptions{Faults: plan}}
	results, err := r.Run(configs)
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("want a *PanicError, got %T: %v", results[1].Err, results[1].Err)
	}
	wantSeed := DeriveSeed(7, configs[1].SeedKey())
	if pe.Seed != wantSeed {
		t.Errorf("PanicError.Seed = %d, want the derived seed %d", pe.Seed, wantSeed)
	}
	if pe.FaultDigest != plan.Digest() {
		t.Errorf("PanicError.FaultDigest = %q, want %q", pe.FaultDigest, plan.Digest())
	}
	msg := pe.Error()
	if !strings.Contains(msg, fmt.Sprint(wantSeed)) || !strings.Contains(msg, plan.Digest()) {
		t.Errorf("Error() = %q, want it to carry seed and digest", msg)
	}
	// The neighbors still completed, in canonical slots, with their own
	// replay coordinates intact.
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("healthy config %d failed: %v", i, results[i].Err)
		}
		if results[i].Config.Key() != configs[i].Key() {
			t.Errorf("result %d is %s, want %s", i, results[i].Config.Key(), configs[i].Key())
		}
		if results[i].Metrics.ExecCycles == 0 {
			t.Errorf("config %d produced no metrics", i)
		}
		if results[i].Faults == nil {
			t.Errorf("config %d has no fault tally despite an active plan", i)
		}
	}
}

// TestPanicErrorWithoutFaults: fault-free sweeps render the panic without a
// digest (there is no plan to pin).
func TestPanicErrorWithoutFaults(t *testing.T) {
	pe := &PanicError{Key: "k", Seed: 5, Value: "boom"}
	if got := pe.Error(); strings.Contains(got, "faults") {
		t.Errorf("Error() = %q mentions faults with no plan armed", got)
	}
	pe.FaultDigest = "deadbeefdeadbeef"
	if got := pe.Error(); !strings.Contains(got, "deadbeefdeadbeef") {
		t.Errorf("Error() = %q omits the armed digest", got)
	}
}

// TestFaultedSweepDeterministic extends the worker-count contract to chaos
// runs: with a fault plan armed, results — including the per-site injected
// fault tallies — are byte-identical across parallelism levels.
func TestFaultedSweepDeterministic(t *testing.T) {
	mach := topology.DefaultXeon()
	plan := faultinject.CanonicalPlan(42)
	renderFaults := func(results []Result) string {
		var b strings.Builder
		b.WriteString(render(t, results))
		for i := range results {
			fmt.Fprintf(&b, "%s faults=%v\n", results[i].Config.Key(), results[i].Faults)
		}
		return b.String()
	}
	var base string
	for _, workers := range []int{1, 8} {
		r := Runner{Machine: mach, MasterSeed: 42, Parallelism: workers, Options: engine.RunOptions{Faults: plan}}
		results, err := r.Run(testConfigs(t))
		if err != nil {
			t.Fatal(err)
		}
		got := renderFaults(results)
		if base == "" {
			base = got
			continue
		}
		if got != base {
			t.Errorf("faulted sweep diverged at parallelism %d:\nbase:\n%s\ngot:\n%s", workers, base, got)
		}
	}
	if !strings.Contains(base, "faultinject.") && !strings.Contains(base, "vm.migrate.fail") {
		t.Logf("render:\n%s", base)
	}
}

// TestBadConfigReportsError covers non-panic failures: an unknown kernel or
// policy is a per-config error, not a sweep abort.
func TestBadConfigReportsError(t *testing.T) {
	mach := topology.DefaultXeon()
	configs := []Config{
		{Kernel: "nope", Class: workloads.ClassTest, Threads: 8, Policy: "os"},
		{Kernel: "CG", Class: workloads.ClassTest, Threads: 8, Policy: "imaginary"},
		{Kernel: "CG", Class: workloads.ClassTest, Threads: 8, Policy: "os"},
	}
	r := Runner{Machine: mach}
	results, err := r.Run(configs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || results[1].Err == nil {
		t.Fatalf("bad configs reported no error: %v, %v", results[0].Err, results[1].Err)
	}
	if results[2].Err != nil {
		t.Fatalf("healthy config failed: %v", results[2].Err)
	}
	if !strings.Contains(FirstErr(results).Error(), "nope") {
		t.Errorf("FirstErr should be the canonical-order first failure, got %v", FirstErr(results))
	}
}

// TestSweepProbeEvents checks the progress trace: sweep.start, one exp.done
// per config in canonical order with the config index as virtual time, and
// sweep.done — regardless of worker count.
func TestSweepProbeEvents(t *testing.T) {
	mach := topology.DefaultXeon()
	configs := testConfigs(t)
	var base string
	for _, workers := range []int{1, 8} {
		pr := obs.New(obs.Options{})
		r := Runner{Machine: mach, Parallelism: workers, Options: engine.RunOptions{Probe: pr}}
		if _, err := r.Run(configs); err != nil {
			t.Fatal(err)
		}
		events := pr.Events()
		if len(events) != len(configs)+2 {
			t.Fatalf("got %d events, want %d", len(events), len(configs)+2)
		}
		var b strings.Builder
		for _, e := range events {
			fmt.Fprintf(&b, "%d %s.%s\n", e.Time, e.Cat, e.Name)
		}
		if events[0].Name != "sweep.start" || events[0].Time != 0 {
			t.Errorf("first event = %+v, want sweep.start at 0", events[0])
		}
		last := events[len(events)-1]
		if last.Name != "sweep.done" || last.Time != uint64(len(configs))+1 {
			t.Errorf("last event = %+v, want sweep.done at %d", last, len(configs)+1)
		}
		for i, e := range events[1 : len(events)-1] {
			if e.Name != "exp.done" || e.Time != uint64(i)+1 {
				t.Errorf("event %d = %+v, want exp.done at %d", i+1, e, i+1)
			}
		}
		if base == "" {
			base = b.String()
		} else if b.String() != base {
			t.Errorf("progress events differ across worker counts:\nbase:\n%s\ngot:\n%s", base, b.String())
		}
	}
}

// TestObservePerExperiment checks each config gets its own probe and the
// probe lands on its result.
func TestObservePerExperiment(t *testing.T) {
	mach := topology.DefaultXeon()
	configs := testConfigs(t)
	r := Runner{
		Machine:     mach,
		Parallelism: 4,
		Observe:     func(Config) *obs.Probe { return obs.New(obs.Options{}) },
	}
	results, err := r.Run(configs)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[*obs.Probe]bool)
	for i := range results {
		pr := results[i].Probe
		if pr == nil {
			t.Fatalf("%s: no probe", results[i].Config.Key())
		}
		if seen[pr] {
			t.Fatalf("%s: probe shared between runs", results[i].Config.Key())
		}
		seen[pr] = true
		if len(pr.Samples()) == 0 {
			t.Errorf("%s: probe recorded no samples", results[i].Config.Key())
		}
	}
}

// TestDeriveSeedStable pins the derivation so a refactor cannot silently
// remap every archived sweep seed.
func TestDeriveSeedStable(t *testing.T) {
	got := DeriveSeed(0, "nas/CG/small/t32/r0")
	if got != DeriveSeed(0, "nas/CG/small/t32/r0") {
		t.Fatal("DeriveSeed is not a pure function")
	}
	cases := map[string]bool{}
	keys := []string{
		"nas/CG/small/t32/r0", "nas/CG/small/t32/r1",
		"nas/SP/small/t32/r0", "nas/CG/tiny/t32/r0",
	}
	for _, k := range keys {
		for _, master := range []int64{0, 1, 42} {
			s := DeriveSeed(master, k)
			id := fmt.Sprintf("%d", s)
			if cases[id] {
				t.Errorf("seed collision at (%d, %q)", master, k)
			}
			cases[id] = true
		}
	}
}

// TestSeedKeyExcludesPolicy: policies under comparison must share streams.
func TestSeedKeyExcludesPolicy(t *testing.T) {
	a := Config{Kernel: "CG", Class: workloads.ClassTest, Threads: 8, Policy: "os", Rep: 1}
	b := a
	b.Policy = "spcd"
	if a.SeedKey() != b.SeedKey() {
		t.Errorf("SeedKey differs across policies: %q vs %q", a.SeedKey(), b.SeedKey())
	}
	if a.Key() == b.Key() {
		t.Errorf("Key must include the policy: %q", a.Key())
	}
	c := a
	c.Rep = 2
	if a.SeedKey() == c.SeedKey() {
		t.Errorf("SeedKey must include the rep: %q", a.SeedKey())
	}
}

// TestRunnerValidation: a runner without a machine, with a negative
// Parallelism or Shards, or with a fault plan field out of range errors
// before any run, naming the field; an empty config list yields an empty,
// event-framed sweep.
func TestRunnerValidation(t *testing.T) {
	r := Runner{}
	if _, err := r.Run(testConfigs(t)); err == nil {
		t.Error("nil machine should error")
	}
	nan := math.NaN()
	for _, c := range []struct {
		want string
		r    Runner
	}{
		{"Parallelism", Runner{Parallelism: -1}},
		{"Shards", Runner{Options: engine.RunOptions{Shards: -1}}},
		{"StallRate", Runner{Options: engine.RunOptions{Faults: faultinject.Plan{Seed: 1, FaultDupRate: 0.01, StallRate: nan}}}},
		{"FaultDropRate", Runner{Options: engine.RunOptions{Faults: faultinject.Plan{Seed: 1, FaultDropRate: nan}}}},
		{"MigrateFailRate", Runner{Options: engine.RunOptions{Faults: faultinject.Plan{Seed: 1, MigrateFailRate: -0.1}}}},
		{"RemapDelayRate", Runner{Options: engine.RunOptions{Faults: faultinject.Plan{Seed: 1, RemapDelayRate: 1.5}}}},
		{"NodeCapacityFactor", Runner{Options: engine.RunOptions{Faults: faultinject.Plan{Seed: 1, FaultDupRate: 0.01, NodeCapacityFactor: nan}}}},
		{"Intensity", Runner{Options: engine.RunOptions{Faults: faultinject.DefaultPlan(1, nan)}}},
	} {
		c.r.Machine = topology.DefaultXeon()
		results, err := c.r.Run(testConfigs(t))
		if err == nil || !strings.Contains(err.Error(), c.want) || results != nil {
			t.Errorf("bad %s: %d results, error %v; want no results and an error naming it", c.want, len(results), err)
		}
	}
	pr := obs.New(obs.Options{})
	r2 := Runner{Machine: topology.DefaultXeon(), Options: engine.RunOptions{Probe: pr}}
	results, err := r2.Run(nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty sweep: %v, %d results", err, len(results))
	}
	if len(pr.Events()) != 2 {
		t.Errorf("empty sweep recorded %d events, want sweep.start + sweep.done", len(pr.Events()))
	}
}

// TestWorkers pins the worker-count rule every pool shares: 0 selects
// GOMAXPROCS, the count is clamped to [1, jobs], and negative is an error.
func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ parallelism, jobs, want int }{
		{0, 1000, procs},
		{0, 1, 1},
		{0, 0, 1},
		{1, 10, 1},
		{8, 3, 3},
		{4, 0, 1},
		{3, 3, 3},
	} {
		got, err := Workers(c.parallelism, c.jobs)
		if err != nil || got != c.want {
			t.Errorf("Workers(%d, %d) = %d, %v; want %d", c.parallelism, c.jobs, got, err, c.want)
		}
	}
	if _, err := Workers(-1, 4); err == nil || !strings.Contains(err.Error(), "Parallelism") {
		t.Errorf("Workers(-1, 4) error %v, want one naming Parallelism", err)
	}
}
