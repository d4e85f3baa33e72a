package spcd_test

import (
	"math"
	"testing"

	"spcd"
)

// TestPaperShapeHeterogeneousVsHomogeneous checks the paper's headline
// result at tiny scale: communication-aware placement (the oracle) clearly
// beats the communication-blind OS baseline on a heterogeneous kernel, and
// does essentially nothing on a homogeneous one (§V-D).
func TestPaperShapeHeterogeneousVsHomogeneous(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run shape test")
	}
	mach := spcd.DefaultMachine()

	norm := func(kernel string) float64 {
		t.Helper()
		w, err := spcd.NPB(kernel, 32, spcd.ClassTiny)
		if err != nil {
			t.Fatal(err)
		}
		base, err := spcd.Run(mach, w, "os", 1)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := spcd.Run(mach, w, "oracle", 1)
		if err != nil {
			t.Fatal(err)
		}
		return oracle.ExecSeconds / base.ExecSeconds
	}

	sp := norm("SP")
	if sp > 0.95 {
		t.Errorf("SP oracle/os = %.3f, want clear gain (< 0.95)", sp)
	}
	ep := norm("EP")
	if ep < 0.93 || ep > 1.07 {
		t.Errorf("EP oracle/os = %.3f, want ~1 (nothing to optimize)", ep)
	}
}

// TestPaperShapeCacheEffects checks the secondary claims: the oracle
// reduces cache-to-cache transactions and invalidation misses on a
// heterogeneous kernel — the causal chain of §II-A.
func TestPaperShapeCacheEffects(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run shape test")
	}
	mach := spcd.DefaultMachine()
	w, err := spcd.NPB("BT", 32, spcd.ClassTiny)
	if err != nil {
		t.Fatal(err)
	}
	base, err := spcd.Run(mach, w, "os", 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := spcd.Run(mach, w, "oracle", 1)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Cache.C2CTotal() >= base.Cache.C2CTotal() {
		t.Errorf("oracle c2c %d >= os %d", oracle.Cache.C2CTotal(), base.Cache.C2CTotal())
	}
	if oracle.Cache.InvalidationMisses >= base.Cache.InvalidationMisses {
		t.Errorf("oracle invalidation misses %d >= os %d",
			oracle.Cache.InvalidationMisses, base.Cache.InvalidationMisses)
	}
	if oracle.Energy.ProcessorJoules >= base.Energy.ProcessorJoules {
		t.Errorf("oracle proc energy %.3f >= os %.3f",
			oracle.Energy.ProcessorJoules, base.Energy.ProcessorJoules)
	}
}

// TestPaperShapeSPCDBetweenOSAndOracle checks SPCD's position on a strongly
// heterogeneous kernel at tiny scale: its final placement (and cache
// traffic) must improve on the OS baseline even though overheads at this
// compressed scale can absorb part of the runtime gain (the quantitative
// regime is ClassSmall; see EXPERIMENTS.md).
func TestPaperShapeSPCDBetweenOSAndOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run shape test")
	}
	mach := spcd.DefaultMachine()
	w, err := spcd.NPB("UA", 32, spcd.ClassTiny)
	if err != nil {
		t.Fatal(err)
	}
	base, err := spcd.Run(mach, w, "os", 2)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spcd.Run(mach, w, "spcd", 2)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Migrations == 0 {
		t.Error("SPCD should migrate on UA")
	}
	// At tiny scale we accept up to a small slowdown from the compressed
	// overhead ratios, but never a blow-up.
	if sp.ExecSeconds > base.ExecSeconds*1.15 {
		t.Errorf("SPCD exec %.6f more than 15%% over OS %.6f", sp.ExecSeconds, base.ExecSeconds)
	}
	if sp.DetectionOverheadPct+sp.MappingOverheadPct > 20 {
		t.Errorf("overheads %.1f%%+%.1f%% out of range",
			sp.DetectionOverheadPct, sp.MappingOverheadPct)
	}
}

// TestPaperShapeDetection checks the detection shape of Figs. 6/7 at tiny
// scale: SPCD follows the four-phase producer/consumer (it detects the
// communication and remaps at least once), and the NAS kernels'
// ground-truth patterns separate into the heterogeneous and homogeneous
// classes.
func TestPaperShapeDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run shape test")
	}
	mach := spcd.DefaultMachine()
	pc, err := spcd.ProducerConsumer(32, spcd.ClassTiny, 4, spcd.ClassTiny.Accesses/4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spcd.Run(mach, pc, "spcd", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Migrations < 1 {
		t.Errorf("producer/consumer: SPCD never remapped across the phase changes")
	}
	if m.CommMatrix == nil || m.CommMatrix.Total() == 0 {
		t.Errorf("producer/consumer: SPCD detected no communication")
	}

	heterogeneity := func(kernel string) float64 {
		t.Helper()
		w, err := spcd.NPB(kernel, 32, spcd.ClassTiny)
		if err != nil {
			t.Fatal(err)
		}
		return spcd.TraceCommunication(w, mach, 1).Heterogeneity()
	}
	hetMin, homoMax := math.Inf(1), math.Inf(-1)
	for _, kernel := range []string{"SP", "BT", "UA"} {
		hetMin = math.Min(hetMin, heterogeneity(kernel))
	}
	for _, kernel := range []string{"EP", "FT", "IS"} {
		homoMax = math.Max(homoMax, heterogeneity(kernel))
	}
	if hetMin <= homoMax {
		t.Errorf("pattern classes overlap: min heterogeneous %.2f <= max homogeneous %.2f", hetMin, homoMax)
	}
}

// TestPaperShapeSPCDOverhead checks SPCD's cost at tiny scale (Figs. 8/16):
// on SP it migrates and runs within 10% of the OS baseline, and on SP and
// EP its detection plus mapping overhead stays under 15%.
func TestPaperShapeSPCDOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run shape test")
	}
	mach := spcd.DefaultMachine()
	for _, kernel := range []string{"SP", "EP"} {
		w, err := spcd.NPB(kernel, 32, spcd.ClassTiny)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spcd.Run(mach, w, "spcd", 1)
		if err != nil {
			t.Fatal(err)
		}
		if ovh := sp.DetectionOverheadPct + sp.MappingOverheadPct; ovh >= 15 {
			t.Errorf("%s: SPCD overhead %.2f%%, want < 15%%", kernel, ovh)
		}
		if kernel != "SP" {
			continue
		}
		if sp.Migrations < 1 {
			t.Errorf("SP: SPCD never migrated")
		}
		base, err := spcd.Run(mach, w, "os", 1)
		if err != nil {
			t.Fatal(err)
		}
		if r := sp.ExecSeconds / base.ExecSeconds; r >= 1.10 {
			t.Errorf("SP: SPCD exec %.3f× OS, want < 1.10×", r)
		}
	}
}
