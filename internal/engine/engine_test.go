package engine

import (
	"errors"
	"testing"

	"spcd/internal/commmatrix"
	"spcd/internal/topology"
	"spcd/internal/workloads"
)

// pinned is a minimal static policy for engine tests.
type pinned struct {
	name string
	aff  []int
	// optional migration schedule: at tick number trigger, return newAff.
	trigger int
	newAff  []int
	ticks   int
	initErr error
}

func (p *pinned) Name() string { return p.name }
func (p *pinned) Init(env *Env) error {
	if p.initErr != nil {
		return p.initErr
	}
	if p.aff == nil {
		p.aff = make([]int, env.NumThreads)
		for i := range p.aff {
			p.aff[i] = i
		}
	}
	return nil
}
func (p *pinned) InitialAffinity() []int { return append([]int(nil), p.aff...) }
func (p *pinned) Tick(uint64) []int {
	p.ticks++
	if p.trigger > 0 && p.ticks == p.trigger {
		return p.newAff
	}
	return nil
}
func (p *pinned) Overheads() Overheads            { return Overheads{} }
func (p *pinned) FinalMatrix() *commmatrix.Matrix { return nil }

func testWorkload(t *testing.T, threads int) workloads.Workload {
	t.Helper()
	w, err := workloads.NewNPB("SP", threads, workloads.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunCompletesAllWork(t *testing.T) {
	w := testWorkload(t, 8)
	m, err := Run(Config{
		Machine:  topology.DefaultXeon(),
		Workload: w,
		Policy:   &pinned{name: "pin"},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.ExecSeconds <= 0 || m.ExecCycles == 0 {
		t.Errorf("exec = %g s / %d cycles", m.ExecSeconds, m.ExecCycles)
	}
	// All accesses ran: app + serial init.
	wantMin := w.AccessesPerThread() * 8
	if m.Cache.Accesses < wantMin {
		t.Errorf("cache accesses = %d, want >= %d", m.Cache.Accesses, wantMin)
	}
	if m.Instructions == 0 {
		t.Error("instructions not counted")
	}
	if m.Policy != "pin" || m.Workload != "SP" || m.Seed != 1 {
		t.Errorf("identity fields wrong: %+v", m)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	w := testWorkload(t, 4)
	run := func(seed int64) Metrics {
		m, err := Run(Config{Machine: topology.DefaultXeon(), Workload: w,
			Policy: &pinned{name: "pin"}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(7), run(7)
	if a.ExecCycles != b.ExecCycles || a.Cache != b.Cache {
		t.Error("same seed must reproduce identical metrics")
	}
	c := run(8)
	if a.ExecCycles == c.ExecCycles && a.Cache == c.Cache {
		t.Error("different seeds should differ")
	}
}

func TestRunValidation(t *testing.T) {
	mach := topology.DefaultXeon()
	w := testWorkload(t, 4)
	cases := []Config{
		{Workload: w, Policy: &pinned{}},
		{Machine: mach, Policy: &pinned{}},
		{Machine: mach, Workload: w},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	// Too many threads for the machine.
	big, _ := workloads.NewNPB("EP", 64, workloads.ClassTest)
	if _, err := Run(Config{Machine: mach, Workload: big, Policy: &pinned{}}); err == nil {
		t.Error("64 threads on 32 contexts should fail")
	}
	// A hand-mutated machine is validated too: 64 cores exceed the
	// directory's 32-bit core masks.
	wide := topology.DefaultXeon()
	wide.CoresPerSocket = 32
	if _, err := Run(Config{Machine: wide, Workload: w, Policy: &pinned{}}); err == nil {
		t.Error("a 64-core machine should fail validation")
	}
	// So is a cache level that is not a whole number of sets, which the
	// cache would otherwise build at a different size: a 64-byte 20-way L3
	// and a 3,000-byte 8-way L1.
	partialL3 := topology.DefaultXeon()
	partialL3.L3 = topology.CacheGeometry{Size: 64, Assoc: 20}
	partialL1 := topology.DefaultXeon()
	partialL1.L1 = topology.CacheGeometry{Size: 3000, Assoc: 8}
	for _, m := range []*topology.Machine{partialL3, partialL1} {
		if _, err := Run(Config{Machine: m, Workload: w, Policy: &pinned{}}); err == nil {
			t.Errorf("L1 %+v, L3 %+v: a cache of partial sets should fail validation", m.L1, m.L3)
		}
	}
}

func TestRunPolicyInitError(t *testing.T) {
	w := testWorkload(t, 4)
	boom := errors.New("boom")
	_, err := Run(Config{Machine: topology.DefaultXeon(), Workload: w,
		Policy: &pinned{initErr: boom}})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestRunRejectsBadAffinity(t *testing.T) {
	w := testWorkload(t, 4)
	mach := topology.DefaultXeon()
	// Duplicate context.
	if _, err := Run(Config{Machine: mach, Workload: w,
		Policy: &pinned{aff: []int{0, 0, 1, 2}}}); err == nil {
		t.Error("duplicate context should fail")
	}
	// Out of range.
	if _, err := Run(Config{Machine: mach, Workload: w,
		Policy: &pinned{aff: []int{0, 1, 2, 99}}}); err == nil {
		t.Error("out-of-range context should fail")
	}
	// Wrong length.
	if _, err := Run(Config{Machine: mach, Workload: w,
		Policy: &pinned{aff: []int{0, 1}}}); err == nil {
		t.Error("short affinity should fail")
	}
}

func TestMigrationAccounting(t *testing.T) {
	w := testWorkload(t, 4)
	p := &pinned{name: "mig", aff: []int{0, 1, 2, 3}, trigger: 2, newAff: []int{4, 5, 2, 3}}
	m, err := Run(Config{Machine: topology.DefaultXeon(), Workload: w, Policy: p, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Migrations != 1 {
		t.Errorf("Migrations = %d, want 1", m.Migrations)
	}
	if m.MigratedThreads != 2 {
		t.Errorf("MigratedThreads = %d, want 2", m.MigratedThreads)
	}
}

func TestMigrationCostSlowsRun(t *testing.T) {
	w := testWorkload(t, 4)
	mach := topology.DefaultXeon()
	base, err := Run(Config{Machine: mach, Workload: w,
		Policy: &pinned{aff: []int{0, 1, 2, 3}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Same final placement, but reached via an expensive migration.
	migrated, err := Run(Config{Machine: mach, Workload: w,
		Policy:              &pinned{aff: []int{4, 5, 2, 3}, trigger: 2, newAff: []int{0, 1, 2, 3}},
		MigrationCostCycles: 2_000_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if migrated.ExecCycles <= base.ExecCycles {
		t.Errorf("migration cost not reflected: %d <= %d", migrated.ExecCycles, base.ExecCycles)
	}
}

func TestPlacementQualityAffectsTime(t *testing.T) {
	// A producer/consumer pair co-located on a core must beat the same
	// pair split across sockets — the engine-level version of the paper's
	// core claim.
	w, err := workloads.NewProducerConsumer(4, workloads.ClassTest, 1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	mach := topology.DefaultXeon()
	near, err := Run(Config{Machine: mach, Workload: w,
		Policy: &pinned{aff: []int{0, 1, 2, 3}}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	far, err := Run(Config{Machine: mach, Workload: w,
		Policy: &pinned{aff: []int{0, 16, 2, 18}}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if near.ExecCycles >= far.ExecCycles {
		t.Errorf("near placement (%d cycles) should beat far (%d cycles)",
			near.ExecCycles, far.ExecCycles)
	}
	if near.Cache.C2CCrossSocket >= far.Cache.C2CCrossSocket {
		t.Errorf("near placement should have fewer cross-socket transfers (%d vs %d)",
			near.Cache.C2CCrossSocket, far.Cache.C2CCrossSocket)
	}
}

func TestSerialInitHomesPagesOnOneNode(t *testing.T) {
	w := testWorkload(t, 8)
	mach := topology.DefaultXeon()
	m, err := Run(Config{Machine: mach, Workload: w,
		Policy: &pinned{aff: []int{0, 1, 2, 3, 4, 5, 6, 7}}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The parallel phase should produce almost no additional first-touch
	// faults relative to footprint: init touched everything.
	if m.VM.FirstTouchFaults == 0 {
		t.Fatal("no faults recorded")
	}
	if m.VM.InducedFaults != 0 {
		t.Error("static policy should not induce faults")
	}
}

func TestMPKIComputation(t *testing.T) {
	w := testWorkload(t, 4)
	m, err := Run(Config{Machine: topology.DefaultXeon(), Workload: w,
		Policy: &pinned{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantL2 := float64(m.Cache.L2Misses) / float64(m.Instructions) * 1000
	if m.L2MPKI != wantL2 {
		t.Errorf("L2MPKI = %g, want %g", m.L2MPKI, wantL2)
	}
	wantL3 := float64(m.Cache.L3Misses) / float64(m.Instructions) * 1000
	if m.L3MPKI != wantL3 {
		t.Errorf("L3MPKI = %g, want %g", m.L3MPKI, wantL3)
	}
}

func TestEnergyPopulated(t *testing.T) {
	w := testWorkload(t, 4)
	m, err := Run(Config{Machine: topology.DefaultXeon(), Workload: w,
		Policy: &pinned{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Energy.ProcessorJoules <= 0 || m.Energy.DRAMJoules <= 0 {
		t.Errorf("energy not computed: %+v", m.Energy)
	}
	if m.Energy.ProcPerInstrNJ <= 0 || m.Energy.DRAMPerInstrNJ <= 0 {
		t.Errorf("per-instruction energy not computed: %+v", m.Energy)
	}
}

func TestMetricsString(t *testing.T) {
	w := testWorkload(t, 4)
	m, _ := Run(Config{Machine: topology.DefaultXeon(), Workload: w,
		Policy: &pinned{name: "pin"}, Seed: 1})
	if m.String() == "" {
		t.Error("String should render a summary")
	}
}
