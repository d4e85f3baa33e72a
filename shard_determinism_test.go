package spcd_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spcd"
)

// renderShardedSweep runs the full kernel × policy grid on the epoch-sharded
// engine with the given intra-run worker count and renders every
// experiment's metrics — including the detected communication matrix, byte
// for byte — into one string.
func renderShardedSweep(t *testing.T, shards int, cls spcd.Class) string {
	t.Helper()
	s := spcd.Sweep{
		Machine:    spcd.DefaultMachine(),
		Class:      cls,
		Threads:    8,
		Reps:       1,
		MasterSeed: 12345,
		Options:    spcd.RunOptions{Shards: shards},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, kernel := range res.Kernels {
		r := res.ByKernel[kernel]
		for _, pol := range r.Policies() {
			for _, m := range r.ByPolicy[pol] {
				fmt.Fprintf(&buf, "%s/%s:\n", kernel, pol)
				if m.CommMatrix != nil {
					if err := spcd.WriteMatrixCSV(&buf, m.CommMatrix); err != nil {
						t.Fatal(err)
					}
					m.CommMatrix = nil
				}
				fmt.Fprintf(&buf, "%+v\n", m)
			}
		}
	}
	return buf.String()
}

// TestEngineShardingByteIdentical is the sharded engine's acceptance gate:
// the complete kernel × policy grid produces byte-identical metrics (and
// detected communication matrices) at every intra-run worker count. Unlike
// sweep-level parallelism this exercises the epoch engine itself — shard
// workers share one simulation, so any frozen-state leak or merge-order slip
// shows up as a byte diff here. SWEEP_CLASS selects the workload class —
// "test" by default so the race detector stays affordable; CI runs the full
// SWEEP_CLASS=small grid without -race.
func TestEngineShardingByteIdentical(t *testing.T) {
	clsName := os.Getenv("SWEEP_CLASS")
	if clsName == "" {
		clsName = "test"
	}
	cls, err := spcd.ClassByName(clsName)
	if err != nil {
		t.Fatalf("SWEEP_CLASS=%q: %v", clsName, err)
	}
	base := renderShardedSweep(t, 1, cls)
	for _, shards := range []int{2, 4, 8} {
		if got := renderShardedSweep(t, shards, cls); got != base {
			t.Errorf("class %s grid at shards=%d differs from shards=1", clsName, shards)
		}
	}
}

// TestEngineShardingByteIdenticalWithFaults is the chaos leg of the gate:
// under the canonical mid-intensity fault plan, per-thread stall streams and
// barrier-ordered fault resolution must keep the grid worker-count-invariant
// too. One kernel suffices — the per-site fault machinery is workload-
// independent — so this stays cheap enough to run unconditionally.
func TestEngineShardingByteIdenticalWithFaults(t *testing.T) {
	plan := spcd.CanonicalFaultPlan(9)
	render := func(shards int) string {
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
			Options:    spcd.RunOptions{Shards: shards, Faults: plan},
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
	base := render(1)
	for _, shards := range []int{4} {
		if got := render(shards); got != base {
			t.Errorf("faulted run at shards=%d differs from shards=1", shards)
		}
	}
}

// TestGoldenShardedMetrics pins the epoch-sharded engine's results the same
// way TestGoldenMetrics pins the sequential engine's: full CG metrics for
// one fixed seed × {os, spcd} at shards=2, recorded in testdata. The epoch
// engine's results intentionally differ from the sequential engine's (epoch-
// relaxed coherence; DESIGN.md §13) but must never drift silently between
// PRs. Regenerate with `go test -run TestGoldenShardedMetrics -update` ONLY
// when a sharded-semantics change is intended, and say so in the commit.
func TestGoldenShardedMetrics(t *testing.T) {
	mach := spcd.DefaultMachine()
	for _, policy := range []string{"os", "spcd"} {
		t.Run(policy, func(t *testing.T) {
			w, err := spcd.NPB(goldenKernel, goldenThreads, spcd.ClassTest)
			if err != nil {
				t.Fatal(err)
			}
			m, err := spcd.Run(mach, w, policy, goldenSeed, spcd.RunOptions{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			got := renderMetrics(t, m)
			path := filepath.Join("testdata",
				fmt.Sprintf("golden_sharded_%s_%s.txt", goldenKernel, policy))
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update on a trusted tree): %v", err)
			}
			if got != string(want) {
				t.Errorf("sharded metrics diverged from golden %s\n--- got ---\n%s--- want ---\n%s",
					path, got, want)
			}
		})
	}
}
