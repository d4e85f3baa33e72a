package spcd_test

import (
	"fmt"
	"strings"
	"testing"

	"spcd"
)

// TestZeroFaultPlanMatchesBaseline: an intensity-0 plan must reproduce
// today's golden metrics byte for byte — the fault layer armed-but-inactive
// takes exactly the pre-existing code paths.
func TestZeroFaultPlanMatchesBaseline(t *testing.T) {
	mach := spcd.DefaultMachine()
	for _, pol := range []string{"os", "spcd", "tlb", "hwc"} {
		w, err := spcd.NPB("CG", 8, spcd.ClassTest)
		if err != nil {
			t.Fatal(err)
		}
		base, err := spcd.Run(mach, w, pol, 42)
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := spcd.Run(mach, w, pol, 42, spcd.RunOptions{Faults: spcd.DefaultFaultPlan(7, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%+v", faulted), fmt.Sprintf("%+v", base); got != want {
			t.Errorf("%s: zero-fault run diverged from baseline:\nbase:    %s\nfaulted: %s", pol, want, got)
		}
	}
}

// TestChaosRunsDeterministic: same-seed faulted runs are byte-identical, and
// the whole faulted grid is identical at parallelism 1 and 8.
func TestChaosRunsDeterministic(t *testing.T) {
	mach := spcd.DefaultMachine()
	plan := spcd.CanonicalFaultPlan(42)

	w, err := spcd.NPB("CG", 8, spcd.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	a, err := spcd.Run(mach, w, "spcd", 42, spcd.RunOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	b, err := spcd.Run(mach, w, "spcd", 42, spcd.RunOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Errorf("same-seed faulted runs diverged:\na: %+v\nb: %+v", a, b)
	}

	renderGrid := func(parallelism int) string {
		res, err := spcd.Sweep{
			Machine:     mach,
			Kernels:     []string{"CG", "SP"},
			Class:       spcd.ClassTest,
			Threads:     8,
			Policies:    []string{"os", "spcd"},
			Reps:        2,
			MasterSeed:  42,
			Parallelism: parallelism,
			Options:     spcd.RunOptions{Faults: plan},
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.FirstErr(); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, k := range res.Kernels {
			for _, pol := range res.ByKernel[k].Policies() {
				for _, m := range res.ByKernel[k].ByPolicy[pol] {
					fmt.Fprintf(&sb, "%s/%s %+v\n", k, pol, m)
				}
			}
		}
		return sb.String()
	}
	if g1, g8 := renderGrid(1), renderGrid(8); g1 != g8 {
		t.Errorf("faulted grid diverged between parallelism 1 and 8:\np1:\n%s\np8:\n%s", g1, g8)
	}
}

// TestCanonicalPlanGridAcceptance is the PR's acceptance gate: under the
// canonical fault plan, every policy-grid run completes without panic, and
// SPCD's cross-socket cache-to-cache traffic stays at or below the OS
// policy's — degraded detection must not leave SPCD worse than no detection.
func TestCanonicalPlanGridAcceptance(t *testing.T) {
	mach := spcd.DefaultMachine()
	plan := spcd.CanonicalFaultPlan(42)
	res, err := spcd.Sweep{
		Machine:    mach,
		Kernels:    []string{"CG", "SP"},
		Class:      spcd.ClassTest,
		Threads:    8,
		Policies:   spcd.PolicyNames,
		Reps:       2,
		MasterSeed: 42,
		Options:    spcd.RunOptions{Faults: plan},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, cfgErr := range res.Errs {
		if cfgErr != nil {
			t.Errorf("%s failed under the canonical plan: %v", res.Keys[i], cfgErr)
		}
	}
	for _, k := range res.Kernels {
		mean := func(pol string) float64 {
			runs := res.ByKernel[k].ByPolicy[pol]
			var sum float64
			for _, m := range runs {
				sum += float64(m.Cache.C2CCrossSocket)
			}
			return sum / float64(len(runs))
		}
		if s, o := mean("spcd"), mean("os"); s > o {
			t.Errorf("%s: spcd cross-socket c2c %.1f exceeds os %.1f under the canonical plan", k, s, o)
		}
	}
}

// TestFullMigrationFailureFallsBackToOS is the degradation invariant at its
// extreme: a plan failing 100%% of remap applications (and page migrations)
// must trip the watchdog exactly once and leave the run on its initial
// scatter, with zero thread migrations. The detection policies share one
// watchdog, so each of them must show the same trace on SP.
func TestFullMigrationFailureFallsBackToOS(t *testing.T) {
	mach := spcd.DefaultMachine()
	plan := spcd.FaultPlan{Seed: 5, MigrateFailRate: 1, RemapDelayRate: 1}
	npb := func(kernel string) spcd.Workload {
		t.Helper()
		w, err := spcd.NPB(kernel, 8, spcd.ClassTest)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	run := func(kernel, pol string) (spcd.Metrics, int, int) {
		t.Helper()
		pr := spcd.NewProbe(spcd.ObsOptions{})
		m, err := spcd.Run(mach, npb(kernel), pol, 42, spcd.RunOptions{Faults: plan, Probe: pr})
		if err != nil {
			t.Fatal(err)
		}
		fallbacks, delays := 0, 0
		for _, e := range pr.Events() {
			switch e.Name {
			case "policy.fallback":
				fallbacks++
			case "remap.delayed":
				delays++
			}
		}
		return m, fallbacks, delays
	}

	m, fallbacks, delays := run("CG", "spcd")
	if fallbacks != 1 {
		t.Errorf("policy.fallback emitted %d times, want exactly 1 (delays seen: %d)", fallbacks, delays)
	}
	if m.Migrations != 0 {
		t.Errorf("Migrations = %d, want 0: no remap may apply when every application fails", m.Migrations)
	}
	// On CG the initial scatter is no worse than the OS policy's placement
	// with its random churn. That is this run's outcome, not an invariant:
	// on SP the scatter loses to the OS run.
	osRun, err := spcd.Run(mach, npb("CG"), "os", 42)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache.C2CCrossSocket > osRun.Cache.C2CCrossSocket {
		t.Errorf("cross-socket c2c = %d under full failure, want at most the OS policy's %d",
			m.Cache.C2CCrossSocket, osRun.Cache.C2CCrossSocket)
	}

	for _, pol := range []string{"spcd", "tlb", "hwc"} {
		m, fallbacks, delays := run("SP", pol)
		if fallbacks != 1 || delays != 5 {
			t.Errorf("SP/%s: %d policy.fallback after %d remap.delayed, want 1 after 5", pol, fallbacks, delays)
		}
		if m.Migrations != 0 {
			t.Errorf("SP/%s: Migrations = %d, want 0", pol, m.Migrations)
		}
	}
}
