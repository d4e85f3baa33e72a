package spcd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"spcd"
)

// renderRuntimeLeg runs the CG experiment (os + spcd, two reps) under the
// given run options and renders every run's metrics byte for byte.
// o.Runtime, when non-nil, attaches the host-time collector — whose presence
// is exactly what this file proves changes nothing.
func renderRuntimeLeg(t *testing.T, o spcd.RunOptions) string {
	t.Helper()
	w, err := spcd.NPB("CG", 8, spcd.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	res := runWorkload(t, spcd.Sweep{
		Machine:    spcd.DefaultMachine(),
		Workload:   w,
		Policies:   []string{"os", "spcd"},
		Reps:       2,
		MasterSeed: 7,
		Options:    o,
	})
	var buf bytes.Buffer
	for _, pol := range res.Policies() {
		for _, m := range res.ByPolicy[pol] {
			if m.CommMatrix != nil {
				if err := spcd.WriteMatrixCSV(&buf, m.CommMatrix); err != nil {
					t.Fatal(err)
				}
				m.CommMatrix = nil
			}
			fmt.Fprintf(&buf, "%s: %+v\n", pol, m)
		}
	}
	return buf.String()
}

// renderServeLeg serves the canonical three-tenant churn schedule under the
// given run options and renders the report and its per-tenant CSV.
func renderServeLeg(t *testing.T, o spcd.RunOptions) string {
	t.Helper()
	s := spcd.DefaultScenario(3, spcd.ClassTest, 42)
	s.Options = o
	rep, err := spcd.Serve(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString(rep.Render())
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRuntimeObsByteIdentity is the one-way contract's acceptance gate:
// attaching a RuntimeCollector must leave simulation results byte-identical
// on the sequential engine, the epoch-sharded engine, the sharded chaos
// (fault-injected) path and the serving scenario's interval runs. The
// spcdlint runtimeobs-isolation rule proves no host-time value can flow
// back statically; this proves it dynamically, byte for byte.
func TestRuntimeObsByteIdentity(t *testing.T) {
	legs := []struct {
		name   string
		render func(*testing.T, spcd.RunOptions) string
		opts   spcd.RunOptions
	}{
		{"sequential", renderRuntimeLeg, spcd.RunOptions{}},
		{"sharded4", renderRuntimeLeg, spcd.RunOptions{Shards: 4}},
		{"sharded4-chaos", renderRuntimeLeg, spcd.RunOptions{Shards: 4, Faults: spcd.CanonicalFaultPlan(9)}},
		{"serve", renderServeLeg, spcd.RunOptions{}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			base := leg.render(t, leg.opts)
			observed := leg.opts
			observed.Runtime = spcd.NewRuntimeCollector()
			if got := leg.render(t, observed); got != base {
				t.Errorf("output with RuntimeCollector attached differs from the unobserved run")
			}
			// The observed leg must actually have observed something, or the
			// identity above proves nothing.
			var buf bytes.Buffer
			if err := spcd.WriteRuntimeSummary(&buf, observed.Runtime); err != nil {
				t.Fatal(err)
			}
			var sum runtimeSummaryDoc
			if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			if len(sum.Procs) == 0 {
				t.Fatal("runtime summary recorded no processes")
			}
		})
	}
}

// runtimeSummaryDoc mirrors the runtime_summary.json schema the tools'
// -runtimeobs flag writes (internal/runtimeobs.Summary).
type runtimeSummaryDoc struct {
	SchemaVersion int     `json:"schema_version"`
	WallSeconds   float64 `json:"wall_seconds"`
	Procs         []struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Engine *struct {
			Mode                 string  `json:"mode"`
			Shards               int     `json:"shards"`
			Epochs               int     `json:"epochs"`
			SimulateSeconds      float64 `json:"simulate_seconds"`
			BarrierStallFraction float64 `json:"barrier_stall_fraction"`
			LoadImbalanceRatio   float64 `json:"load_imbalance_ratio"`
			MergeShare           float64 `json:"merge_share"`
			CriticalPath         *struct {
				EstimatedSpeedup float64 `json:"estimated_speedup"`
			} `json:"critical_path"`
		} `json:"engine"`
		Sweep *struct {
			Workers     int     `json:"workers"`
			Experiments int     `json:"experiments"`
			Occupancy   float64 `json:"occupancy"`
		} `json:"sweep"`
	} `json:"procs"`
}

// TestRuntimeSummaryDiagnostics runs one sharded simulation under the
// collector and checks the derived diagnostics are present and sane: a
// barrier-stall fraction in [0,1], a load-imbalance ratio >= 1, a merge
// share in [0,1], and a critical-path attribution with a finite speedup
// estimate.
func TestRuntimeSummaryDiagnostics(t *testing.T) {
	w, err := spcd.NPB("CG", 8, spcd.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	rt := spcd.NewRuntimeCollector()
	if _, err := spcd.Run(spcd.DefaultMachine(), w, "spcd", 1, spcd.RunOptions{Shards: 2, Runtime: rt}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spcd.WriteRuntimeSummary(&buf, rt); err != nil {
		t.Fatal(err)
	}
	var sum runtimeSummaryDoc
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatalf("summary does not parse: %v\n%s", err, buf.String())
	}
	found := false
	for _, p := range sum.Procs {
		if p.Engine == nil {
			continue
		}
		e := p.Engine
		if e.Mode != "epoch-sharded" {
			continue
		}
		found = true
		if e.Shards != 2 {
			t.Errorf("shards = %d, want 2", e.Shards)
		}
		if e.Epochs <= 0 || e.SimulateSeconds <= 0 {
			t.Errorf("no recorded work: epochs=%d simulate=%g", e.Epochs, e.SimulateSeconds)
		}
		if e.BarrierStallFraction < 0 || e.BarrierStallFraction > 1 {
			t.Errorf("barrier_stall_fraction = %g, want [0,1]", e.BarrierStallFraction)
		}
		if e.LoadImbalanceRatio < 1 || math.IsInf(e.LoadImbalanceRatio, 0) || math.IsNaN(e.LoadImbalanceRatio) {
			t.Errorf("load_imbalance_ratio = %g, want finite >= 1", e.LoadImbalanceRatio)
		}
		if e.MergeShare < 0 || e.MergeShare > 1 {
			t.Errorf("merge_share = %g, want [0,1]", e.MergeShare)
		}
		if e.CriticalPath == nil {
			t.Error("critical_path missing")
		} else if e.CriticalPath.EstimatedSpeedup <= 0 || math.IsInf(e.CriticalPath.EstimatedSpeedup, 0) {
			t.Errorf("estimated_speedup = %g, want finite > 0", e.CriticalPath.EstimatedSpeedup)
		}
	}
	if !found {
		t.Fatalf("no epoch-sharded engine process in summary:\n%s", buf.String())
	}
}

// chromeTraceDoc is the slice of the Chrome trace schema the shard-
// attribution test reads.
type chromeTraceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestShardedTraceShardAttribution checks the virtual-time trace records
// which shard worker produced each buffered engine event: every
// thread.done and stall.injected event must carry a "shard" arg within
// range, the attribution must span multiple workers (it is per-core, not a
// constant), and the whole trace must be byte-identical across repeated
// sharded runs.
func TestShardedTraceShardAttribution(t *testing.T) {
	const shards = 2
	plan := spcd.CanonicalFaultPlan(9)
	render := func() []byte {
		t.Helper()
		w, err := spcd.NPB("CG", 8, spcd.ClassTest)
		if err != nil {
			t.Fatal(err)
		}
		pr := spcd.NewProbe(spcd.ObsOptions{})
		o := spcd.RunOptions{Shards: shards, Faults: plan, Probe: pr}
		if _, err := spcd.Run(spcd.DefaultMachine(), w, "spcd", 8, o); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := spcd.WriteChromeTrace(&buf, pr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	trace := render()
	var doc chromeTraceDoc
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatal(err)
	}
	seen := make(map[float64]int)
	var attributed int
	for _, ev := range doc.TraceEvents {
		if ev.Name != "thread.done" && ev.Name != "stall.injected" {
			continue
		}
		attributed++
		v, ok := ev.Args["shard"]
		if !ok {
			t.Fatalf("%s event has no shard arg: %+v", ev.Name, ev.Args)
		}
		shard, ok := v.(float64)
		if !ok || shard < 0 || shard >= shards {
			t.Fatalf("%s event shard = %v, want integer in [0,%d)", ev.Name, v, shards)
		}
		seen[shard]++
	}
	if attributed == 0 {
		t.Fatal("trace has no thread.done/stall.injected events to attribute")
	}
	if len(seen) < 2 {
		t.Errorf("all %d events attributed to one shard %v; expected work on both workers", attributed, seen)
	}
	if again := render(); !bytes.Equal(trace, again) {
		t.Error("sharded trace bytes differ between identical runs")
	}
}
