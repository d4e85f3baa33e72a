package core

import (
	"math/rand"
	"strings"
	"testing"

	"spcd/internal/hashtab"
	"spcd/internal/topology"
	"spcd/internal/vm"
)

func testConfig(threads int) Config {
	cfg := DefaultConfig(topology.DefaultXeon(), threads)
	cfg.TableSize = 4096
	return cfg
}

func fault(thread int, addr uint64, now uint64) vm.Fault {
	return vm.Fault{Thread: thread, Context: thread, Page: addr >> 12, Addr: addr,
		Type: vm.FaultInduced, Time: now}
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	m := topology.DefaultXeon()
	cfg := DefaultConfig(m, 32)
	if cfg.Granularity != 4096 {
		t.Errorf("granularity = %d, want 4096", cfg.Granularity)
	}
	if cfg.TableSize != 256000 {
		t.Errorf("table size = %d, want 256000", cfg.TableSize)
	}
	if cfg.TargetExtraFaultRatio != 0.10 {
		t.Errorf("ratio = %g, want 0.10", cfg.TargetExtraFaultRatio)
	}
	if cfg.SamplerInterval != m.SecondsToCycles(0.010) {
		t.Errorf("interval = %d cycles, want 10 ms worth", cfg.SamplerInterval)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumThreads = 0 },
		func(c *Config) { c.Granularity = 3000 },
		func(c *Config) { c.Granularity = 0 },
		func(c *Config) { c.TableSize = 0 },
		func(c *Config) { c.SamplerInterval = 0 },
		func(c *Config) { c.TargetExtraFaultRatio = -0.1 },
		func(c *Config) { c.TargetExtraFaultRatio = 1.0 },
	}
	for i, mutate := range bad {
		cfg := testConfig(4)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
		if _, err := NewDetector(cfg); err == nil {
			t.Errorf("case %d: NewDetector should reject config", i)
		}
	}
}

// TestConfigRejectsOversizedTable: a bucket holds an int32 position, so a
// table past hashtab.MaxSize is a configuration error naming the field, not
// a panic in hashtab.New.
func TestConfigRejectsOversizedTable(t *testing.T) {
	cfg := testConfig(4)
	cfg.TableSize = hashtab.MaxSize + 1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "TableSize") {
		t.Fatalf("Validate() = %v, want an error naming TableSize", err)
	}
	cfg.TableSize = hashtab.MaxSize
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate() at MaxSize = %v, want nil", err)
	}
}

func TestDetectorBasicCommunication(t *testing.T) {
	d, err := NewDetector(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// Thread 0 faults on page X, then thread 1 faults on the same page:
	// one unit of communication in cell (0, 1) — the Fig. 3 timeline.
	d.HandleFault(fault(0, 0x1000, 10))
	d.HandleFault(fault(1, 0x1004, 20))
	if got := d.Matrix().At(0, 1); got != 1 {
		t.Errorf("comm(0,1) = %g, want 1", got)
	}
	if got := d.Matrix().At(1, 0); got != 1 {
		t.Errorf("matrix must be symmetric")
	}
	st := d.Stats()
	if st.FaultsSeen != 2 || st.CommEvents != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDetectorDistinctPagesNoCommunication(t *testing.T) {
	d, _ := NewDetector(testConfig(4))
	d.HandleFault(fault(0, 0x1000, 10))
	d.HandleFault(fault(1, 0x2000, 20))
	if d.Matrix().Total() != 0 {
		t.Error("accesses to different pages are not communication")
	}
}

func TestDetectorSameThreadNoSelfCommunication(t *testing.T) {
	d, _ := NewDetector(testConfig(4))
	d.HandleFault(fault(2, 0x1000, 10))
	d.HandleFault(fault(2, 0x1008, 20))
	if d.Matrix().Total() != 0 {
		t.Error("a thread does not communicate with itself")
	}
}

func TestDetectorMultipleSharers(t *testing.T) {
	d, _ := NewDetector(testConfig(4))
	d.HandleFault(fault(0, 0x1000, 1))
	d.HandleFault(fault(1, 0x1000, 2))
	d.HandleFault(fault(2, 0x1000, 3))
	// Thread 2's fault communicates with both earlier sharers.
	if d.Matrix().At(2, 0) != 1 || d.Matrix().At(2, 1) != 1 {
		t.Errorf("matrix = (2,0)=%g (2,1)=%g", d.Matrix().At(2, 0), d.Matrix().At(2, 1))
	}
}

func TestTemporalWindowFiltersStaleSharers(t *testing.T) {
	cfg := testConfig(2)
	cfg.TimeWindow = 100
	d, _ := NewDetector(cfg)
	d.HandleFault(fault(0, 0x1000, 10))
	d.HandleFault(fault(1, 0x1000, 500)) // 490 cycles later: outside window
	if d.Matrix().Total() != 0 {
		t.Error("stale access should not count as communication")
	}
	if d.Stats().TemporalDropped != 1 {
		t.Errorf("TemporalDropped = %d, want 1", d.Stats().TemporalDropped)
	}
	d.HandleFault(fault(0, 0x1000, 550)) // 50 cycles after thread 1: inside
	if d.Matrix().At(0, 1) != 1 {
		t.Error("access within window should count")
	}
}

func TestTemporalWindowDisabled(t *testing.T) {
	cfg := testConfig(2)
	cfg.TimeWindow = 0
	d, _ := NewDetector(cfg)
	d.HandleFault(fault(0, 0x1000, 10))
	d.HandleFault(fault(1, 0x1000, 1e9))
	if d.Matrix().At(0, 1) != 1 {
		t.Error("window disabled: any gap counts")
	}
}

func TestGranularityFinerThanPage(t *testing.T) {
	cfg := testConfig(2)
	cfg.Granularity = 256 // sub-page detection (§III-C1)
	d, _ := NewDetector(cfg)
	// Same page, different 256-byte regions: no communication.
	d.HandleFault(fault(0, 0x1000, 1))
	d.HandleFault(fault(1, 0x1100, 2))
	if d.Matrix().Total() != 0 {
		t.Error("different fine-grained regions should not communicate")
	}
	// Same region: communication.
	d.HandleFault(fault(1, 0x1010, 3))
	if d.Matrix().At(0, 1) != 1 {
		t.Error("same fine-grained region should communicate")
	}
}

func TestGranularityCoarserThanPage(t *testing.T) {
	cfg := testConfig(2)
	cfg.Granularity = 64 * 1024
	d, _ := NewDetector(cfg)
	d.HandleFault(fault(0, 0x1000, 1))
	d.HandleFault(fault(1, 0xF000, 2)) // different page, same 64K region
	if d.Matrix().At(0, 1) != 1 {
		t.Error("coarse granularity should merge neighbouring pages")
	}
}

func TestDetectorIgnoresForeignThreads(t *testing.T) {
	d, _ := NewDetector(testConfig(2))
	d.HandleFault(fault(7, 0x1000, 1)) // out of range
	d.HandleFault(fault(-1, 0x1000, 2))
	if d.Stats().FaultsSeen != 0 {
		t.Error("faults from unknown threads must be ignored")
	}
}

func TestDecayAndSnapshot(t *testing.T) {
	d, _ := NewDetector(testConfig(2))
	d.HandleFault(fault(0, 0x1000, 1))
	d.HandleFault(fault(1, 0x1000, 2))
	snap := d.Snapshot()
	d.Decay(0.5)
	if snap.At(0, 1) != 1 {
		t.Error("snapshot should be unaffected by decay")
	}
	if d.Matrix().At(0, 1) != 0.5 {
		t.Errorf("decayed value = %g, want 0.5", d.Matrix().At(0, 1))
	}
}

func TestDetectionCostAccounting(t *testing.T) {
	cfg := testConfig(2)
	cfg.DetectionCostCycles = 100
	d, _ := NewDetector(cfg)
	d.HandleFault(fault(0, 0x1000, 1))
	d.HandleFault(fault(1, 0x1000, 2))
	if got := d.Stats().DetectionCycles; got != 200 {
		t.Errorf("DetectionCycles = %d, want 200", got)
	}
	if d.TableMemoryBytes() <= 0 {
		t.Error("table memory should be positive")
	}
}

// TestDetectorSurvivesPathologicalTable exercises the overwrite-on-collision
// policy under maximum pressure: a single-bucket table. Detection quality
// collapses (every region evicts the last) but the mechanism must stay
// correct and bounded.
func TestDetectorSurvivesPathologicalTable(t *testing.T) {
	cfg := testConfig(4)
	cfg.TableSize = 1
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10_000; i++ {
		d.HandleFault(fault(int(i%4), i%64*4096, i))
	}
	st := d.Stats()
	if st.FaultsSeen != 10_000 {
		t.Errorf("FaultsSeen = %d", st.FaultsSeen)
	}
	if d.TableStats().Evictions == 0 {
		t.Error("single-bucket table must evict")
	}
	// The matrix stays well-formed.
	m := d.Snapshot()
	for i := 0; i < 4; i++ {
		if m.At(i, i) != 0 {
			t.Error("diagonal corrupted")
		}
	}
}

// TestDetectorTimestampMonotonicityNotRequired: faults can arrive with
// out-of-order timestamps (threads run on different clocks); the detector
// must not panic or produce negative windows (uint subtraction wraps, which
// the window check must tolerate by treating huge gaps as stale).
func TestDetectorOutOfOrderTimestamps(t *testing.T) {
	cfg := testConfig(2)
	cfg.TimeWindow = 100
	d, _ := NewDetector(cfg)
	d.HandleFault(fault(0, 0x1000, 1000))
	d.HandleFault(fault(1, 0x1000, 950)) // earlier than the sharer's stamp
	// 950 - 1000 wraps to a huge uint64, which exceeds the window: the
	// pair is (conservatively) dropped rather than miscounted.
	if d.Matrix().At(0, 1) != 0 {
		t.Errorf("wrapped window should drop the pair, got %g", d.Matrix().At(0, 1))
	}
	if d.Stats().TemporalDropped != 1 {
		t.Errorf("TemporalDropped = %d, want 1", d.Stats().TemporalDropped)
	}
}

// --- Sampler tests ---

func newVM() (*vm.AddressSpace, *topology.Machine) {
	m := topology.DefaultXeon()
	return vm.NewAddressSpace(m), m
}

func TestSamplerWakesOnSchedule(t *testing.T) {
	as, m := newVM()
	cfg := DefaultConfig(m, 4)
	s, err := NewSampler(cfg, as, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Map some pages first.
	for i := uint64(0); i < 100; i++ {
		as.Access(0, 0, i*4096, false, i)
	}
	if n := s.MaybeRun(cfg.SamplerInterval - 1); n != 0 {
		t.Error("sampler ran before its wakeup time")
	}
	s.MaybeRun(cfg.SamplerInterval)
	if s.Stats().Wakeups != 1 {
		t.Errorf("Wakeups = %d, want 1", s.Stats().Wakeups)
	}
	// Next wakeup is one interval later.
	s.MaybeRun(cfg.SamplerInterval + 1)
	if s.Stats().Wakeups != 1 {
		t.Error("sampler should not wake twice in one interval")
	}
	s.MaybeRun(2 * cfg.SamplerInterval)
	if s.Stats().Wakeups != 2 {
		t.Errorf("Wakeups = %d, want 2", s.Stats().Wakeups)
	}
}

func TestSamplerCreatesInducedFaults(t *testing.T) {
	as, m := newVM()
	cfg := DefaultConfig(m, 4)
	s, _ := NewSampler(cfg, as, 2)
	for i := uint64(0); i < 200; i++ {
		as.Access(0, 0, i*4096, false, i)
	}
	cleared := s.MaybeRun(cfg.SamplerInterval)
	if cleared == 0 {
		t.Fatal("sampler should clear pages")
	}
	if as.ResidentPages() != 200-cleared {
		t.Errorf("resident = %d after clearing %d", as.ResidentPages(), cleared)
	}
	// Re-touching a cleared page faults and is visible to handlers.
	induced := 0
	as.AddHandler(func(f vm.Fault) {
		if f.Type == vm.FaultInduced {
			induced++
		}
	})
	for i := uint64(0); i < 200; i++ {
		as.Access(1, 2, i*4096, false, 1000+i)
	}
	if induced != cleared {
		t.Errorf("induced faults = %d, want %d", induced, cleared)
	}
}

func TestSamplerRateConverges(t *testing.T) {
	// Drive a synthetic fault load and check the induced/total ratio
	// converges near the 10% target (§III-C3).
	as, m := newVM()
	cfg := DefaultConfig(m, 4)
	s, _ := NewSampler(cfg, as, 3)
	rng := rand.New(rand.NewSource(4))
	now := uint64(0)
	nextNew := uint64(0)
	// A workload whose footprint keeps growing, so demand-paging faults
	// continue through the run (like an NPB kernel allocating as it goes):
	// most accesses hit the existing working set, some touch new pages.
	for step := 0; step < 400; step++ {
		now += cfg.SamplerInterval
		for i := 0; i < 500; i++ {
			var page uint64
			if rng.Float64() < 0.2 {
				page = nextNew
				nextNew++
			} else if nextNew > 0 {
				page = uint64(rng.Int63n(int64(nextNew)))
			}
			as.Access(rng.Intn(4), rng.Intn(32), page*4096, false, now)
		}
		s.MaybeRun(now)
	}
	st := as.Stats()
	ratio := float64(st.InducedFaults) / float64(st.TotalFaults())
	if ratio < 0.06 || ratio > 0.20 {
		t.Errorf("induced ratio = %.3f (induced %d / total %d), want ~0.10",
			ratio, st.InducedFaults, st.TotalFaults())
	}
}

func TestSamplerBatchBounded(t *testing.T) {
	as, m := newVM()
	cfg := DefaultConfig(m, 4)
	cfg.TargetExtraFaultRatio = 0.5
	s, _ := NewSampler(cfg, as, 5)
	// Huge fault count with zero induced faults produces a huge deficit;
	// batch must clamp.
	for i := uint64(0); i < 50000; i++ {
		as.Access(0, 0, i*4096, false, i)
	}
	s.MaybeRun(cfg.SamplerInterval)
	if s.Batch() > maxBatch {
		t.Errorf("batch = %d exceeds cap %d", s.Batch(), maxBatch)
	}
}

func TestSamplerCostAccounting(t *testing.T) {
	as, m := newVM()
	cfg := DefaultConfig(m, 4)
	cfg.SamplerCostCycles = 500
	s, _ := NewSampler(cfg, as, 6)
	for i := uint64(0); i < 100; i++ {
		as.Access(0, 0, i*4096, false, i)
	}
	cleared := s.MaybeRun(cfg.SamplerInterval)
	if got := s.Stats().SamplerCycles; got != uint64(cleared)*500 {
		t.Errorf("SamplerCycles = %d, want %d", got, cleared*500)
	}
}

func TestSamplerRejectsBadConfig(t *testing.T) {
	as, _ := newVM()
	cfg := testConfig(4)
	cfg.SamplerInterval = 0
	if _, err := NewSampler(cfg, as, 1); err == nil {
		t.Error("expected config error")
	}
}

// End-to-end: detector + sampler on a real address space detect a
// producer/consumer pair sharing pages.
func TestDetectorSamplerIntegration(t *testing.T) {
	as, m := newVM()
	cfg := DefaultConfig(m, 4)
	cfg.TableSize = 8192
	d, _ := NewDetector(cfg)
	s, _ := NewSampler(cfg, as, 7)
	as.AddHandler(d.HandleFault)

	now := uint64(0)
	// Threads 0 and 1 share pages 0..63; threads 2 and 3 share 1000..1063.
	// The sampler runs on its own clock, so present-bit clearing lands at
	// arbitrary points between the producers' and consumers' accesses,
	// like the asynchronous kernel thread would.
	// Each thread walks its buffer at its own jittered rate, like real
	// concurrent threads whose relative progress drifts with memory
	// latency and scheduling noise. Producers write, consumers read the
	// same pages half a buffer behind.
	rng := rand.New(rand.NewSource(42))
	var pos [4]uint64
	pos[1], pos[3] = 32, 32
	for tick := 0; tick < 40000; tick++ {
		now += cfg.SamplerInterval / 512
		for th := 0; th < 4; th++ {
			if rng.Float64() < 0.15 {
				continue // stall: lets relative phases drift
			}
			p := pos[th] % 64
			pos[th]++
			switch th {
			case 0:
				as.Access(0, 0, p*4096, true, now)
			case 1:
				as.Access(1, 1, p*4096, false, now)
			case 2:
				as.Access(2, 2, (1000+p)*4096, true, now)
			case 3:
				as.Access(3, 3, (1000+p)*4096, false, now)
			}
		}
		s.MaybeRun(now)
	}
	mtx := d.Snapshot()
	if mtx.At(0, 1) == 0 || mtx.At(2, 3) == 0 {
		t.Fatalf("communicating pairs not detected: (0,1)=%g (2,3)=%g",
			mtx.At(0, 1), mtx.At(2, 3))
	}
	if mtx.At(0, 2) > mtx.At(0, 1)/4 || mtx.At(1, 3) > mtx.At(2, 3)/4 {
		t.Errorf("false communication detected: %g vs %g", mtx.At(0, 2), mtx.At(0, 1))
	}
	p0, _ := mtx.Partner(0)
	p2, _ := mtx.Partner(2)
	if p0 != 1 || p2 != 3 {
		t.Errorf("partners = %d, %d; want 1, 3", p0, p2)
	}
}
