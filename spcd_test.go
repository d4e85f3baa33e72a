package spcd_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"spcd"
	"spcd/internal/engine"
	"spcd/internal/policy"
)

func TestDefaultMachineIsTableI(t *testing.T) {
	m := spcd.DefaultMachine()
	if m.NumContexts() != 32 || m.Sockets != 2 {
		t.Errorf("default machine = %v", m)
	}
}

func TestNewMachine(t *testing.T) {
	m, err := spcd.NewMachine(1, 4, 2)
	if err != nil || m.NumContexts() != 8 {
		t.Errorf("NewMachine = %v, %v", m, err)
	}
	if _, err := spcd.NewMachine(0, 1, 1); err == nil {
		t.Error("invalid shape should error")
	}
}

func TestNPBConstructors(t *testing.T) {
	for _, name := range spcd.NPBNames {
		w, err := spcd.NPB(name, 8, spcd.ClassTest)
		if err != nil || w.Name() != name {
			t.Errorf("NPB(%s) = %v, %v", name, w, err)
		}
	}
	if _, err := spcd.NPB("ZZ", 8, spcd.ClassTest); err == nil {
		t.Error("unknown kernel should error")
	}
	// A bad thread count is an error, not a panic inside NewSynth.
	for _, threads := range []int{0, -1} {
		if _, err := spcd.NPB("CG", threads, spcd.ClassTest); err == nil {
			t.Errorf("NPB(CG, %d threads) should error", threads)
		}
	}
}

func TestRunAllPolicies(t *testing.T) {
	mach := spcd.DefaultMachine()
	w, _ := spcd.NPB("CG", 8, spcd.ClassTest)
	for _, p := range spcd.PolicyNames {
		m, err := spcd.Run(mach, w, p, 1)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if m.ExecSeconds <= 0 {
			t.Errorf("%s: no execution time", p)
		}
		if m.Policy != p {
			t.Errorf("policy name = %q, want %q", m.Policy, p)
		}
	}
	if _, err := spcd.Run(mach, w, "bogus", 1); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestTraceAndMapping(t *testing.T) {
	mach := spcd.DefaultMachine()
	w, _ := spcd.ProducerConsumer(8, spcd.ClassTest, 1, 2000)
	mtx := spcd.TraceCommunication(w, mach, 1)
	if mtx.Total() == 0 {
		t.Fatal("no communication traced")
	}
	aff, err := spcd.ComputeMapping(mtx, mach)
	if err != nil {
		t.Fatal(err)
	}
	if len(aff) != 8 {
		t.Fatalf("affinity = %v", aff)
	}
	// Pairs (2k, 2k+1) must be SMT-colocated.
	for i := 0; i < 8; i += 2 {
		if mach.CoreOf(aff[i]) != mach.CoreOf(aff[i+1]) {
			t.Errorf("pair (%d,%d) not colocated", i, i+1)
		}
	}
	// Cost of the computed mapping beats an identity scatter.
	id := []int{0, 16, 2, 18, 4, 20, 6, 22}
	if spcd.MappingCost(mtx, mach, aff) >= spcd.MappingCost(mtx, mach, id) {
		t.Error("computed mapping should beat a split placement")
	}
}

func TestDetectCommunication(t *testing.T) {
	mach := spcd.DefaultMachine()
	w, _ := spcd.NPB("SP", 32, spcd.ClassTiny)
	det, err := spcd.DetectCommunication(w, mach, 1)
	if err != nil {
		t.Fatal(err)
	}
	if det.Total() == 0 {
		t.Fatal("nothing detected")
	}
	truth := spcd.TraceCommunication(w, mach, 1)
	if sim := det.Similarity(truth); sim < 0.2 {
		t.Errorf("similarity = %.3f, want >= 0.2", sim)
	}
}

func TestHeatmapRendering(t *testing.T) {
	mach := spcd.DefaultMachine()
	w, _ := spcd.ProducerConsumer(8, spcd.ClassTest, 1, 1000)
	mtx := spcd.TraceCommunication(w, mach, 1)
	ascii := spcd.RenderHeatmap(mtx)
	if !strings.Contains(ascii, "@") {
		t.Error("heatmap should contain dark cells")
	}
	multi := spcd.RenderHeatmaps([]string{"a", "b"}, []*spcd.CommMatrix{mtx, mtx})
	if !strings.Contains(multi, "a") || !strings.Contains(multi, "b") {
		t.Error("labels missing from side-by-side rendering")
	}
	var buf bytes.Buffer
	if err := spcd.WriteHeatmapPGM(&buf, mtx, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P5\n") {
		t.Error("PGM header missing")
	}
}

func TestExperimentFlow(t *testing.T) {
	mach := spcd.DefaultMachine()
	w, _ := spcd.NPB("CG", 8, spcd.ClassTest)
	res, err := spcd.Experiment{
		Machine:  mach,
		Workload: w,
		Policies: []string{"os", "oracle"},
		Reps:     2,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Policies(); len(got) != 2 || got[0] != "os" {
		t.Errorf("Policies = %v", got)
	}
	vals, err := res.Values("os", spcd.MetricTime)
	if err != nil || len(vals) != 2 {
		t.Fatalf("Values = %v, %v", vals, err)
	}
	sum, err := res.Summary("oracle", spcd.MetricTime)
	if err != nil || sum.N != 2 || sum.Mean <= 0 {
		t.Fatalf("Summary = %+v, %v", sum, err)
	}
	norm, err := res.NormalizedMean("oracle", spcd.MetricTime, "os")
	if err != nil || norm <= 0 {
		t.Fatalf("NormalizedMean = %g, %v", norm, err)
	}
	pct, err := res.PercentChange("oracle", spcd.MetricTime, "os")
	if err != nil {
		t.Fatal(err)
	}
	if pct < -100 || pct > 100 {
		t.Errorf("PercentChange = %g out of plausible range", pct)
	}
	if _, err := res.Values("nope", spcd.MetricTime); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := res.Values("os", spcd.Metric("zz")); err == nil {
		t.Error("unknown metric should error")
	}
}

func TestExperimentParallelMatchesSequential(t *testing.T) {
	mach := spcd.DefaultMachine()
	w, _ := spcd.NPB("BT", 8, spcd.ClassTest)
	seq, err := spcd.Experiment{
		Machine: mach, Workload: w, Policies: []string{"os", "oracle"},
		Reps: 2, Parallelism: 1,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := spcd.Experiment{
		Machine: mach, Workload: w, Policies: []string{"os", "oracle"},
		Reps: 2, Parallelism: 4,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"os", "oracle"} {
		a, _ := seq.Values(p, spcd.MetricTime)
		b, _ := par.Values(p, spcd.MetricTime)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s rep %d: sequential %g != parallel %g", p, i, a[i], b[i])
			}
		}
	}
}

func TestExperimentValidation(t *testing.T) {
	if _, err := (spcd.Experiment{}).Run(); err == nil {
		t.Error("empty experiment should error")
	}
}

func TestMetricValueCoversAll(t *testing.T) {
	mach := spcd.DefaultMachine()
	w, _ := spcd.NPB("CG", 4, spcd.ClassTest)
	m, err := spcd.Run(mach, w, "os", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range spcd.AllMetrics {
		if _, err := spcd.MetricValue(m, metric); err != nil {
			t.Errorf("MetricValue(%s): %v", metric, err)
		}
	}
}

func TestClassByName(t *testing.T) {
	for _, name := range []string{"test", "tiny", "small", "A", "a"} {
		cls, err := spcd.ClassByName(name)
		if err != nil || cls.Accesses == 0 {
			t.Errorf("ClassByName(%s) = %+v, %v", name, cls, err)
		}
	}
	if _, err := spcd.ClassByName("huge"); err == nil {
		t.Error("unknown class should error")
	}
}

func TestParsecFacade(t *testing.T) {
	for _, name := range spcd.ParsecNames {
		w, err := spcd.Parsec(name, 8, spcd.ClassTest)
		if err != nil || w.Name() != name {
			t.Errorf("Parsec(%s) = %v, %v", name, w, err)
		}
	}
	if _, err := spcd.Parsec("zz", 8, spcd.ClassTest); err == nil {
		t.Error("unknown parsec kernel should error")
	}
	for _, threads := range []int{0, -1} {
		if _, err := spcd.Parsec("dedup", threads, spcd.ClassTest); err == nil {
			t.Errorf("Parsec(dedup, %d threads) should error", threads)
		}
	}
	// A pipeline kernel runs end to end through the facade.
	w, _ := spcd.Parsec("dedup", 8, spcd.ClassTest)
	m, err := spcd.Run(spcd.DefaultMachine(), w, "oracle", 1)
	if err != nil || m.ExecSeconds <= 0 {
		t.Fatalf("dedup run = %+v, %v", m, err)
	}
}

func TestMatrixCSVAndSVGFacade(t *testing.T) {
	mach := spcd.DefaultMachine()
	w, _ := spcd.ProducerConsumer(8, spcd.ClassTest, 1, 1000)
	mtx := spcd.TraceCommunication(w, mach, 1)

	var csv bytes.Buffer
	if err := spcd.WriteMatrixCSV(&csv, mtx); err != nil {
		t.Fatal(err)
	}
	back, err := spcd.ReadMatrixCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	if back.Total() != mtx.Total() {
		t.Errorf("CSV round trip: %g != %g", back.Total(), mtx.Total())
	}

	var svg bytes.Buffer
	if err := spcd.WriteHeatmapSVG(&svg, mtx, "pc"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg.String(), "<svg") {
		t.Error("SVG output malformed")
	}
}

func TestComparatorPoliciesViaFacade(t *testing.T) {
	mach := spcd.DefaultMachine()
	w, _ := spcd.NPB("CG", 8, spcd.ClassTest)
	for _, name := range []string{"tlb", "hwc"} {
		m, err := spcd.Run(mach, w, name, 1)
		if err != nil || m.Policy != name {
			t.Fatalf("%s run = %+v, %v", name, m, err)
		}
	}
}

// TestRunWithCustomPolicy: code that builds its own policy runs it through
// engine.Run; with the tuned policy Run builds, the metrics are Run's.
func TestRunWithCustomPolicy(t *testing.T) {
	mach := spcd.DefaultMachine()
	w, _ := spcd.NPB("CG", 8, spcd.ClassTest)
	p, err := policy.Tuned("spcd", w, mach)
	if err != nil {
		t.Fatal(err)
	}
	custom, err := engine.Run(engine.Config{Machine: mach, Workload: w, Policy: p, Seed: 1})
	if err != nil || custom.Policy != "spcd" {
		t.Fatalf("engine.Run = %+v, %v", custom, err)
	}
	m, err := spcd.Run(mach, w, "spcd", 1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", m) != fmt.Sprintf("%+v", custom) {
		t.Errorf("Run diverged from engine.Run with the tuned policy:\nRun:    %+v\nengine: %+v", m, custom)
	}
}

// TestRunOptions: the zero RunOptions is a plain Run, and a second
// RunOptions is an error rather than a silent merge.
func TestRunOptions(t *testing.T) {
	mach := spcd.DefaultMachine()
	w, _ := spcd.NPB("CG", 8, spcd.ClassTest)
	plain, err := spcd.Run(mach, w, "os", 1)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := spcd.Run(mach, w, "os", 1, spcd.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", zero) != fmt.Sprintf("%+v", plain) {
		t.Errorf("zero RunOptions changed the run:\nplain: %+v\nzero:  %+v", plain, zero)
	}
	if _, err := spcd.Run(mach, w, "os", 1, spcd.RunOptions{}, spcd.RunOptions{Shards: 2}); err == nil {
		t.Error("two RunOptions accepted")
	}
}
