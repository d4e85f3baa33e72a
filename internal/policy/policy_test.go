package policy

import (
	"testing"

	"spcd/internal/commmatrix"
	"spcd/internal/engine"
	"spcd/internal/mapping"
	"spcd/internal/topology"
	"spcd/internal/trace"
	"spcd/internal/vm"
	"spcd/internal/workloads"
)

func testEnv(t *testing.T, threads int) (*engine.Env, workloads.Workload) {
	t.Helper()
	mach := topology.DefaultXeon()
	w, err := workloads.NewNPB("SP", threads, workloads.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Env{
		Machine:    mach,
		AS:         vm.NewAddressSpace(mach),
		Workload:   w,
		Seed:       1,
		NumThreads: threads,
	}, w
}

func checkAffinity(t *testing.T, mach *topology.Machine, aff []int, n int) {
	t.Helper()
	if len(aff) != n {
		t.Fatalf("affinity length %d, want %d", len(aff), n)
	}
	seen := map[int]bool{}
	for th, ctx := range aff {
		if ctx < 0 || ctx >= mach.NumContexts() {
			t.Fatalf("thread %d on invalid context %d", th, ctx)
		}
		if seen[ctx] {
			t.Fatalf("context %d used twice", ctx)
		}
		seen[ctx] = true
	}
}

func TestScatterSpreadsAcrossSockets(t *testing.T) {
	mach := topology.DefaultXeon()
	aff := Scatter(mach, 32)
	checkAffinity(t, mach, aff, 32)
	// The first two threads land on different sockets: breadth-first.
	if mach.SocketOf(aff[0]) == mach.SocketOf(aff[1]) {
		t.Error("scatter should alternate sockets")
	}
	// The first 16 threads occupy 16 distinct cores (slot 0 first).
	cores := map[int]bool{}
	for _, ctx := range aff[:16] {
		cores[mach.CoreOf(ctx)] = true
	}
	if len(cores) != 16 {
		t.Errorf("first 16 threads on %d cores, want 16", len(cores))
	}
}

func TestScatterPartial(t *testing.T) {
	mach := topology.DefaultXeon()
	aff := Scatter(mach, 5)
	checkAffinity(t, mach, aff, 5)
}

func TestTunedByName(t *testing.T) {
	mach := topology.DefaultXeon()
	w, _ := workloads.NewNPB("SP", 8, workloads.ClassTest)
	for _, name := range append(append([]string(nil), Names...), "tlb", "hwc") {
		p, err := Tuned(name, w, mach)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("Name() = %q, want %q", p.Name(), name)
		}
	}
	if _, err := Tuned("nonsense", w, mach); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestOSPolicy(t *testing.T) {
	env, _ := testEnv(t, 32)
	p := NewOS()
	if err := p.Init(env); err != nil {
		t.Fatal(err)
	}
	checkAffinity(t, env.Machine, p.InitialAffinity(), 32)
	if p.Overheads() != (engine.Overheads{}) {
		t.Error("OS policy should report zero overheads")
	}
	if p.FinalMatrix() != nil {
		t.Error("OS policy detects nothing")
	}
	// Churn eventually produces a migration; every result stays valid.
	migrated := false
	for now := uint64(1); now < 400*p.churnInterval; now += p.churnInterval {
		if aff := p.Tick(now); aff != nil {
			checkAffinity(t, env.Machine, aff, 32)
			migrated = true
		}
	}
	if !migrated {
		t.Error("OS churn never migrated in 400 intervals")
	}
}

func TestRandomPolicyFixedPerSeed(t *testing.T) {
	env, _ := testEnv(t, 32)
	p1 := NewRandom()
	p2 := NewRandom()
	if err := p1.Init(env); err != nil {
		t.Fatal(err)
	}
	if err := p2.Init(env); err != nil {
		t.Fatal(err)
	}
	a1, a2 := p1.InitialAffinity(), p2.InitialAffinity()
	checkAffinity(t, env.Machine, a1, 32)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed should give the same random mapping")
		}
	}
	if p1.Tick(1e9) != nil {
		t.Error("random mapping must not migrate")
	}
	env2, _ := testEnv(t, 32)
	env2.Seed = 99
	p3 := NewRandom()
	p3.Init(env2)
	same := true
	for i, v := range p3.InitialAffinity() {
		if v != a1[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different mappings")
	}
}

func TestOraclePolicyMatchesTraceAnalysis(t *testing.T) {
	env, w := testEnv(t, 8)
	p := NewOracle()
	if err := p.Init(env); err != nil {
		t.Fatal(err)
	}
	aff := p.InitialAffinity()
	checkAffinity(t, env.Machine, aff, 8)
	if p.Tick(1e9) != nil {
		t.Error("oracle must not migrate")
	}
	if p.FinalMatrix() == nil {
		t.Error("oracle should expose the ground-truth matrix")
	}
	// The oracle placement should cost no more than scatter under the
	// ground-truth matrix.
	truth := trace.CommunicationMatrix(w, env.Seed, env.Machine.PageSize)
	if mapping.Cost(truth, env.Machine, aff) > mapping.Cost(truth, env.Machine, Scatter(env.Machine, 8)) {
		t.Error("oracle placement worse than scatter under ground truth")
	}
}

func TestSPCDEndToEndImprovesHeterogeneous(t *testing.T) {
	// Full-stack check at tiny scale: SPCD must detect a heterogeneous
	// pattern and arrive at a placement no worse than the scatter start,
	// measured by ground-truth communication cost.
	mach := topology.DefaultXeon()
	w, _ := workloads.NewNPB("SP", 32, workloads.ClassTiny)
	p, err := Tuned("spcd", w, mach)
	if err != nil {
		t.Fatal(err)
	}
	m, err := engine.Run(engine.Config{Machine: mach, Workload: w, Policy: p, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := p.(*SPCD)
	if m.Migrations == 0 {
		t.Fatal("SPCD never migrated on a heterogeneous workload")
	}
	if m.CommMatrix == nil || m.CommMatrix.Total() == 0 {
		t.Fatal("no communication detected")
	}
	truth := trace.CommunicationMatrix(w, 1, mach.PageSize)
	if sim := m.CommMatrix.Similarity(truth); sim < 0.2 {
		t.Errorf("detected pattern similarity = %.3f, want >= 0.2", sim)
	}
	final := finalAffinity(sp)
	scatterCost := mapping.Cost(truth, mach, Scatter(mach, 32))
	finalCost := mapping.Cost(truth, mach, final)
	if finalCost >= scatterCost {
		t.Errorf("final placement cost %.3g not better than scatter %.3g", finalCost, scatterCost)
	}
	if m.DetectionOverheadPct > 15 {
		t.Errorf("detection overhead %.1f%% implausibly high", m.DetectionOverheadPct)
	}
}

func finalAffinity(p *SPCD) []int { return p.aff }

func TestSPCDHomogeneousDoesNotThrash(t *testing.T) {
	mach := topology.DefaultXeon()
	w, _ := workloads.NewNPB("EP", 32, workloads.ClassTiny)
	p, _ := Tuned("spcd", w, mach)
	m, err := engine.Run(engine.Config{Machine: mach, Workload: w, Policy: p, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Migrations > 2 {
		t.Errorf("EP (no communication) triggered %d migrations, want <= 2", m.Migrations)
	}
}

func TestSPCDOverheadsAccrue(t *testing.T) {
	mach := topology.DefaultXeon()
	w, _ := workloads.NewNPB("SP", 32, workloads.ClassTiny)
	p, _ := Tuned("spcd", w, mach)
	m, err := engine.Run(engine.Config{Machine: mach, Workload: w, Policy: p, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sp := p.(*SPCD)
	ov := sp.Overheads()
	if ov.DetectionCycles == 0 {
		t.Error("detection cycles should accrue")
	}
	if ov.MappingCycles == 0 {
		t.Error("mapping cycles should accrue")
	}
	if m.VM.InducedFaults == 0 {
		t.Error("sampler should induce faults")
	}
	if sp.Detector() == nil || sp.Sampler() == nil || sp.Mapper() == nil {
		t.Error("accessors should expose components")
	}
}

func TestSPCDOnMigrateHook(t *testing.T) {
	mach := topology.DefaultXeon()
	w, _ := workloads.NewNPB("SP", 32, workloads.ClassTiny)
	opts := TunedSPCDOptions(w, mach)
	calls := 0
	opts.OnMigrate = func(now uint64, aff []int, mtx *commmatrix.Matrix) {
		calls++
		checkAffinity(t, mach, aff, 32)
		if now == 0 || mtx == nil || mtx.Total() == 0 {
			t.Errorf("hook got now=%d mtx=%v", now, mtx)
		}
	}
	p := NewSPCD(opts)
	m, err := engine.Run(engine.Config{Machine: mach, Workload: w, Policy: p, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if calls != m.Migrations {
		t.Errorf("hook called %d times, engine saw %d migrations", calls, m.Migrations)
	}
	if calls == 0 {
		t.Error("expected at least one migration on SP")
	}
}

func TestTunedPeriodsScale(t *testing.T) {
	mach := topology.DefaultXeon()
	small, _ := workloads.NewNPB("SP", 32, workloads.ClassTest)
	big, _ := workloads.NewNPB("SP", 32, workloads.ClassSmall)
	cfgSmall := TunedSPCDConfig(small, mach)
	cfgBig := TunedSPCDConfig(big, mach)
	if cfgBig.SamplerInterval <= cfgSmall.SamplerInterval {
		t.Error("bigger workloads should have longer sampler periods")
	}
	if cfgSmall.TimeWindow != 16*cfgSmall.SamplerInterval {
		t.Error("window should be 16 sampler periods")
	}
	if cfgSmall.Granularity != 64*1024 {
		t.Errorf("tuned granularity = %d, want 64K", cfgSmall.Granularity)
	}
	if err := cfgSmall.Validate(); err != nil {
		t.Errorf("tuned config invalid: %v", err)
	}
	for _, name := range Names {
		if _, err := Tuned(name, small, mach); err != nil {
			t.Errorf("Tuned(%s): %v", name, err)
		}
	}
	if _, err := Tuned("nope", small, mach); err == nil {
		t.Error("unknown tuned policy should error")
	}
}
