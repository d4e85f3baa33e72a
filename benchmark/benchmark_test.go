package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"testing"

	"spcd/internal/commmatrix"
	"spcd/internal/engine"
	"spcd/internal/topology"
	"spcd/internal/workloads"
)

// A tiny measurement length: every workload then runs exactly one pass.
const testSeconds = 1e-9

func testWorkload(t *testing.T, name string) *benchWorkload {
	t.Helper()
	for _, wl := range benchWorkloads(testScale) {
		if wl.name == name {
			return wl
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// TestTracedRunsMatchLive runs every workload traced. measure fails a run
// whose traced digest differs from the untraced one, or whose replayed MMU
// and cache counters differ from the live run's, so a clean result proves
// both; the sequential workloads must also have replayed every run. On
// npb-hot-ipi the replay must have taken every path: SPCD under ipi
// shootdowns clears pages, takes induced faults, and misses and hits in
// both the TLB and the L1.
func TestTracedRunsMatchLive(t *testing.T) {
	for _, wl := range benchWorkloads(testScale) {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			res, err := measure(wl, 1, testSeconds, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d runs failed: %v", res.Failed, res.Attempted, res.Errors)
			}
			replayed := !slices.Contains(res.NotMeasured, "vm.ns_per_access")
			if want := wl.name == "npb-small" || wl.name == "npb-hot-ipi"; replayed != want {
				t.Errorf("replayed = %v, want %v (not measured: %v)", replayed, want, res.NotMeasured)
			}
			if wl.name != "npb-hot-ipi" {
				return
			}
			got := map[string]float64{}
			for _, m := range res.Layers {
				got[m.Name] = m.Val
			}
			if slices.Contains(res.NotMeasured, "vm.clear_ns_per_op") || got["policy.evals"] == 0 ||
				!(got["vm.fast_frac"] > 0 && got["vm.fast_frac"] < 1) || !(got["cache.fast_frac"] > 0 && got["cache.fast_frac"] < 1) {
				t.Errorf("replay missed a path: %v", got)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON checks that every metric BENCHMARK.json
// names is printed, with its unit, in the mode that reports it, and that the
// memory process's output matches the timed one's.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range benchWorkloads(benchScale) {
		names = append(names, wl.name)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(names, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(spec.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(names))
	}

	wl := testWorkload(t, "npb-sharded")
	for _, mode := range []struct {
		trace bool
		want  []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res, err := measure(wl, 1, testSeconds, mode.trace)
		if err != nil {
			t.Fatal(err)
		}
		if !mode.trace {
			addMemory(res, memoryRun(wl, 1, testSeconds), 50)
		}
		out, _ := report(res, fingerprint())
		if !out.Correct {
			t.Errorf("trace=%v: %d of %d runs failed: %v", mode.trace, out.Failed, out.Attempted, res.Errors)
		}
		if len(out.Metrics) != len(mode.want) {
			t.Errorf("trace=%v: %d metrics printed, BENCHMARK.json names %d", mode.trace, len(out.Metrics), len(mode.want))
		}
		for _, m := range mode.want {
			got, ok := out.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s printed as %+v (present %v), want unit %s", mode.trace, m.Name, got, ok, m.Unit)
			}
			if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("trace=%v: metric %s = %v", mode.trace, m.Name, got.Value)
			}
		}
	}
}

type initFails struct{ engine.Policy }

func (initFails) Init(*engine.Env) error { return errors.New("injected Init failure") }

// TestInitErrorCountsAsFailed makes one run's policy fail in Init: that run
// is counted as failed on every pass and set-up, the others still run, and
// the result is not correct.
func TestInitErrorCountsAsFailed(t *testing.T) {
	wl := *testWorkload(t, "npb-sharded")
	pass := wl.pass
	wl.pass = func(seed int64) []job {
		jobs := pass(seed)
		jobs[0].(*engineJob).newPolicy = func(name string, w workloads.Workload, m *topology.Machine,
			onEvaluate func(uint64, *commmatrix.Matrix)) (engine.Policy, error) {
			p, err := tunedPolicy(name, w, m, onEvaluate)
			return initFails{p}, err
		}
		return jobs
	}
	res, err := measure(&wl, 1, testSeconds, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(res.Samples["setup_s"]) + res.Passes; res.Failed != want {
		t.Fatalf("failed = %d, want %d (errors %v)", res.Failed, want, res.Errors)
	}
	out, rec := report(res, fingerprint())
	if out.Correct || out.Failed != res.Failed || rec.FailedFrac <= 0 || rec.FailedFrac >= 1 {
		t.Errorf("correct=%v failed=%d failed_frac=%v", out.Correct, out.Failed, rec.FailedFrac)
	}
	if s := res.Samples["sim_accesses_per_s"]; len(s) == 0 || s[0] <= 0 {
		t.Errorf("the runs that did not fail were not measured: %v", s)
	}
}

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(data, n=4), which the spreads are defined by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6}, // extrapolated, as Python does
		{[]float64{10, 2, 7, 4}, 2.5, 9.25},
	} {
		s := summarize(c.data)
		if math.Abs(s.Q1-c.q1) > 1e-12 || math.Abs(s.Q3-c.q3) > 1e-12 {
			t.Errorf("%v: q1 %v q3 %v, want %v %v", c.data, s.Q1, s.Q3, c.q1, c.q3)
		}
	}
}
