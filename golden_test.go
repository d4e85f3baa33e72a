package spcd_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spcd"
)

// The golden-metrics regression gate: the full Metrics of one fixed seed
// under each (kernel, policy) pair of goldenRuns are pinned to files. The
// CG pairs were captured on the pre-optimization tree; the SP pairs pin
// the TLB and HWC comparators. Any hot-path change that alters simulation
// *results* — not just timing — fails this test loudly. determinism_test.go
// proves two same-seed runs agree with each other; this test additionally
// proves they agree with the recorded history, so a refactor cannot shift
// every run by the same amount and slip through.
//
// Regenerate with `go test -run TestGoldenMetrics -update` ONLY when a
// simulation-semantics change is intended, and say so in the commit.
var updateGolden = flag.Bool("update", false, "rewrite golden metric files")

const (
	goldenKernel  = "CG"
	goldenThreads = 8
	goldenSeed    = 42
)

// goldenRuns are the pinned (kernel, policy) pairs. Each policy appears
// once, so the policy names the subtest.
var goldenRuns = []struct{ kernel, policy string }{
	{goldenKernel, "os"}, {goldenKernel, "spcd"}, {"SP", "tlb"}, {"SP", "hwc"},
}

// renderMetrics formats every scalar field of Metrics at full precision,
// one per line, plus the detected communication matrix as CSV. The format
// is append-only: new fields must be added at the end so old goldens stay
// comparable field-by-field in diffs.
func renderMetrics(t *testing.T, m spcd.Metrics) string {
	t.Helper()
	var buf bytes.Buffer
	w := func(name string, v interface{}) {
		fmt.Fprintf(&buf, "%s: %v\n", name, v)
	}
	w("Policy", m.Policy)
	w("Workload", m.Workload)
	w("Seed", m.Seed)
	w("ExecSeconds", m.ExecSeconds)
	w("ExecCycles", m.ExecCycles)
	w("Instructions", m.Instructions)
	w("L2MPKI", m.L2MPKI)
	w("L3MPKI", m.L3MPKI)
	w("Cache", fmt.Sprintf("%+v", m.Cache))
	w("VM", fmt.Sprintf("%+v", m.VM))
	w("Energy", fmt.Sprintf("%+v", m.Energy))
	w("Migrations", m.Migrations)
	w("MigratedThreads", m.MigratedThreads)
	w("DetectionOverheadPct", m.DetectionOverheadPct)
	w("MappingOverheadPct", m.MappingOverheadPct)
	if m.CommMatrix != nil {
		buf.WriteString("CommMatrix:\n")
		if err := spcd.WriteMatrixCSV(&buf, m.CommMatrix); err != nil {
			t.Fatal(err)
		}
	} else {
		buf.WriteString("CommMatrix: <nil>\n")
	}
	return buf.String()
}

func TestGoldenMetrics(t *testing.T) {
	mach := spcd.DefaultMachine()
	for _, run := range goldenRuns {
		policy := run.policy
		t.Run(policy, func(t *testing.T) {
			w, err := spcd.NPB(run.kernel, goldenThreads, spcd.ClassTest)
			if err != nil {
				t.Fatal(err)
			}
			m, err := spcd.Run(mach, w, policy, goldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			got := renderMetrics(t, m)
			path := filepath.Join("testdata",
				fmt.Sprintf("golden_%s_%s.txt", run.kernel, policy))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
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
				t.Errorf("metrics diverged from golden %s\n--- got ---\n%s--- want ---\n%s",
					path, got, want)
			}

			// Observability must be read-only: the same run with a probe
			// attached has to reproduce the pinned metrics bit for bit.
			pr := spcd.NewProbe(spcd.ObsOptions{})
			mObs, err := spcd.Run(mach, w, policy, goldenSeed, spcd.RunOptions{Probe: pr})
			if err != nil {
				t.Fatal(err)
			}
			if gotObs := renderMetrics(t, mObs); gotObs != got {
				t.Errorf("enabling observability changed the metrics\n--- observed ---\n%s--- unobserved ---\n%s",
					gotObs, got)
			}
			if len(pr.Samples()) == 0 || len(pr.Events()) == 0 {
				t.Errorf("observed run recorded %d samples, %d events; want both > 0",
					len(pr.Samples()), len(pr.Events()))
			}
		})
	}
}
