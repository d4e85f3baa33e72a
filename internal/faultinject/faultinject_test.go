package faultinject

import (
	"math"
	"strings"
	"testing"
)

// TestPlanValidate: every plan DefaultPlan builds on [0, 1] is valid, and
// each field out of its range, NaN included, is an error naming that field.
func TestPlanValidate(t *testing.T) {
	for _, x := range []float64{0, 0.25, 0.5, 1} {
		if err := DefaultPlan(7, x).Validate(); err != nil {
			t.Errorf("DefaultPlan(7, %v): %v", x, err)
		}
	}
	if err := (Plan{MigrateFailRate: 1, NodeCapacityFactor: 1.5}).Validate(); err != nil {
		t.Errorf("rate 1, capacity 1.5: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		field string
		edit  func(*Plan, float64)
		bad   []float64
	}{
		{"Intensity", func(p *Plan, v float64) { p.Intensity = v }, []float64{nan, -0.5, 2}},
		{"FaultDropRate", func(p *Plan, v float64) { p.FaultDropRate = v }, []float64{nan, -0.1, 1.1}},
		{"FaultDupRate", func(p *Plan, v float64) { p.FaultDupRate = v }, []float64{nan, -0.1, inf}},
		{"MigrateFailRate", func(p *Plan, v float64) { p.MigrateFailRate = v }, []float64{nan, -1, 1.5}},
		{"SamplerSaturateRate", func(p *Plan, v float64) { p.SamplerSaturateRate = v }, []float64{nan, -0.1, 1.1}},
		{"RemapDelayRate", func(p *Plan, v float64) { p.RemapDelayRate = v }, []float64{nan, -0.1, 1.1}},
		{"StallRate", func(p *Plan, v float64) { p.StallRate = v }, []float64{nan, -0.1, 1.1}},
		{"ShootdownDelayRate", func(p *Plan, v float64) { p.ShootdownDelayRate = v }, []float64{nan, -0.1, 1.1}},
		{"AdmitFailRate", func(p *Plan, v float64) { p.AdmitFailRate = v }, []float64{nan, -0.1, 1.1}},
		{"NodeCapacityFactor", func(p *Plan, v float64) { p.NodeCapacityFactor = v }, []float64{nan, -1, inf}},
	} {
		for _, v := range c.bad {
			p := CanonicalPlan(1)
			c.edit(&p, v)
			if err := p.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s = %v: err = %v, want an error naming %s", c.field, v, err, c.field)
			}
		}
	}
}

// TestNilInjectorIsNoop covers the nil-receiver contract every fault site in
// the simulator relies on: a nil injector answers every query with the
// fault-free outcome.
func TestNilInjectorIsNoop(t *testing.T) {
	var in *Injector
	for _, s := range Sites {
		if in.Hit(s) {
			t.Errorf("nil injector Hit(%s) = true", s)
		}
		if in.Count(s) != 0 {
			t.Errorf("nil injector Count(%s) != 0", s)
		}
	}
	if in.StallCycles() != 0 || in.TotalStallCycles() != 0 {
		t.Error("nil injector injected stall cycles")
	}
	if in.NodeOverCapacity(1000, 10, 4) {
		t.Error("nil injector rejected a migration on capacity")
	}
	if in.SiteCounts() != nil {
		t.Error("nil injector SiteCounts != nil")
	}
	if in.Plan().Active() {
		t.Error("nil injector reports an active plan")
	}
	in.RegisterObs(nil) // must not panic
}

// TestInactivePlanYieldsNilInjector: intensity 0 and the zero Plan are
// inactive, and NewInjector maps them to the nil (no-op) injector so
// fault-free runs take the exact pre-existing code paths.
func TestInactivePlanYieldsNilInjector(t *testing.T) {
	if (Plan{}).Active() {
		t.Error("zero Plan is active")
	}
	if DefaultPlan(7, 0).Active() {
		t.Error("DefaultPlan(_, 0) is active")
	}
	if in := NewInjector(Plan{}, 1); in != nil {
		t.Error("NewInjector(zero plan) != nil")
	}
	if in := NewInjector(DefaultPlan(7, 0), 1); in != nil {
		t.Error("NewInjector(intensity 0) != nil")
	}
	if !CanonicalPlan(7).Active() {
		t.Error("CanonicalPlan is inactive")
	}
}

// TestSameSeedSameSequence is the determinism contract: two injectors built
// from the same (plan, run seed) produce identical decision sequences at
// every site, interleaved the same way.
func TestSameSeedSameSequence(t *testing.T) {
	plan := CanonicalPlan(42)
	a := NewInjector(plan, 1001)
	b := NewInjector(plan, 1001)
	for i := 0; i < 5000; i++ {
		s := Sites[i%len(Sites)]
		switch s {
		case SiteEngineThreadStall:
			if a.StallCycles() != b.StallCycles() {
				t.Fatalf("stall draw %d diverged", i)
			}
		case SiteVMNodeCapacity:
			if a.NodeOverCapacity(uint64(i), 4*i+8, 4) != b.NodeOverCapacity(uint64(i), 4*i+8, 4) {
				t.Fatalf("capacity check %d diverged", i)
			}
		default:
			if a.Hit(s) != b.Hit(s) {
				t.Fatalf("draw %d at %s diverged", i, s)
			}
		}
	}
	ac, bc := a.SiteCounts(), b.SiteCounts()
	for i := range ac {
		if ac[i] != bc[i] {
			t.Errorf("counts diverged at %s: %d vs %d", ac[i].Site, ac[i].Count, bc[i].Count)
		}
	}
	if a.TotalStallCycles() != b.TotalStallCycles() {
		t.Error("total stall cycles diverged")
	}
}

// TestDifferentRunSeedsDiverge: the run seed salts every stream, so two runs
// of the same plan see different (but individually reproducible) sequences.
func TestDifferentRunSeedsDiverge(t *testing.T) {
	plan := CanonicalPlan(42)
	a := NewInjector(plan, 1)
	b := NewInjector(plan, 2)
	same := true
	for i := 0; i < 200; i++ {
		if a.Hit(SiteVMMigrateFail) != b.Hit(SiteVMMigrateFail) {
			same = false
		}
	}
	if same {
		t.Error("200 draws identical across different run seeds")
	}
}

// TestZeroRateStreamIsolation: a disabled site consumes no draws, so
// enabling one site cannot shift another site's stream. The migrate-fail
// sequence must be identical whether or not fault drops are also enabled.
func TestZeroRateStreamIsolation(t *testing.T) {
	only := Plan{Seed: 9, MigrateFailRate: 0.3}
	both := Plan{Seed: 9, MigrateFailRate: 0.3, FaultDropRate: 0.5}
	a := NewInjector(only, 77)
	b := NewInjector(both, 77)
	for i := 0; i < 2000; i++ {
		// Interleave drop queries on b; on a the site is disabled and must
		// not consume a draw.
		a.Hit(SiteVMFaultDrop)
		b.Hit(SiteVMFaultDrop)
		if a.Hit(SiteVMMigrateFail) != b.Hit(SiteVMMigrateFail) {
			t.Fatalf("migrate-fail stream shifted at draw %d when fault drops were enabled", i)
		}
	}
	if a.Count(SiteVMFaultDrop) != 0 {
		t.Error("disabled site fired")
	}
	if b.Count(SiteVMFaultDrop) == 0 {
		t.Error("enabled site never fired in 2000 draws at rate 0.5")
	}
}

// TestRateOneAlwaysFires: a rate of 1 fires unconditionally (the chaos
// acceptance tests rely on it to force every degradation path).
func TestRateOneAlwaysFires(t *testing.T) {
	in := NewInjector(Plan{Seed: 3, MigrateFailRate: 1}, 5)
	for i := 0; i < 100; i++ {
		if !in.Hit(SiteVMMigrateFail) {
			t.Fatal("rate-1 site did not fire")
		}
	}
	if in.Count(SiteVMMigrateFail) != 100 {
		t.Errorf("count = %d, want 100", in.Count(SiteVMMigrateFail))
	}
}

// TestStallBurstBounds: injected bursts stay within [0.5, 1.5) of the
// nominal length and accumulate into TotalStallCycles.
func TestStallBurstBounds(t *testing.T) {
	const nominal = 20_000
	in := NewInjector(Plan{Seed: 11, StallRate: 1, StallBurstCycles: nominal}, 6)
	var total uint64
	fired := 0
	for i := 0; i < 500; i++ {
		burst := in.StallCycles()
		if burst == 0 {
			continue // the rate clamp let this slice run undisturbed
		}
		if burst < nominal/2 || burst >= nominal+nominal/2 {
			t.Fatalf("burst %d outside [%d, %d)", burst, nominal/2, nominal+nominal/2)
		}
		total += burst
		fired++
	}
	if fired == 0 {
		t.Fatal("no stalls fired in 500 slices at the clamped max rate")
	}
	if in.TotalStallCycles() != total {
		t.Errorf("TotalStallCycles = %d, want %d", in.TotalStallCycles(), total)
	}
}

// TestStallRateClamped: StallRate 1 would starve the simulation (a stalled
// thread never retires an access); the injector clamps the effective rate
// below 1 so forward progress is guaranteed.
func TestStallRateClamped(t *testing.T) {
	in := NewInjector(Plan{Seed: 12, StallRate: 1}, 8)
	ran := false
	for i := 0; i < 1000; i++ {
		if in.StallCycles() == 0 {
			ran = true
			break
		}
	}
	if !ran {
		t.Error("thread never ran in 1000 slices; StallRate clamp missing")
	}
}

// TestNodeCapacity: the capacity check is a pure function of VM state — no
// draw — and rejects only when the node is at its cap.
func TestNodeCapacity(t *testing.T) {
	in := NewInjector(Plan{Seed: 13, NodeCapacityFactor: 1.5}, 9)
	// 400 mapped pages over 4 nodes: cap = 1.5 * 100 = 150 pages per node.
	if in.NodeOverCapacity(100, 400, 4) {
		t.Error("rejected a migration into a node under its cap")
	}
	if !in.NodeOverCapacity(150, 400, 4) {
		t.Error("allowed a migration into a node at its cap")
	}
	if got := in.Count(SiteVMNodeCapacity); got != 1 {
		t.Errorf("capacity rejections = %d, want 1", got)
	}
}

// TestDigest: the digest is stable for equal plans and separates any field
// change, so reports and PanicError records pin the exact fault mix.
func TestDigest(t *testing.T) {
	p := CanonicalPlan(42)
	if p.Digest() != CanonicalPlan(42).Digest() {
		t.Error("equal plans digest differently")
	}
	variants := []Plan{
		DefaultPlan(43, 0.5),
		DefaultPlan(42, 0.6),
		func() Plan { q := p; q.StallBurstCycles++; return q }(),
		func() Plan { q := p; q.NodeCapacityFactor += 0.01; return q }(),
		func() Plan { q := p; q.ShootdownDelayRate += 0.01; return q }(),
		func() Plan { q := p; q.ShootdownDelayCycles++; return q }(),
		func() Plan { q := p; q.AdmitFailRate += 0.01; return q }(),
	}
	seen := map[string]bool{p.Digest(): true}
	for i, v := range variants {
		d := v.Digest()
		if seen[d] {
			t.Errorf("variant %d collides with a previous digest %s", i, d)
		}
		seen[d] = true
	}
	if len(p.Digest()) != 16 {
		t.Errorf("digest %q is not 16 hex digits", p.Digest())
	}
}

// TestHitUnknownSitePanics: an unregistered site is a programming error the
// faultsite lint rule should have caught; at runtime it fails loudly.
func TestHitUnknownSitePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Hit on an unregistered site did not panic")
		}
	}()
	in := NewInjector(CanonicalPlan(1), 2)
	//lint:ignore faultsite this test deliberately mints an unregistered site to cover the panic path
	in.Hit(Site("not.registered"))
}

// TestRegistryComplete: the positional index covers every registered site.
func TestRegistryComplete(t *testing.T) {
	if len(Sites) != len(siteIdx) {
		t.Fatalf("Sites has %d entries, index has %d", len(Sites), len(siteIdx))
	}
	for i, s := range Sites {
		if siteIdx[s] != i {
			t.Errorf("siteIdx[%s] = %d, want %d", s, siteIdx[s], i)
		}
	}
}
