package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spcd/internal/cli"
)

var update = flag.Bool("update", false, "rewrite the golden CSV from the current output")

// testOptions is a small, fast sweep (ClassTest, two kernels, two policies)
// that still exercises the full report pipeline: normalization tables and
// Table II (os+spcd present) plus the metadata header.
func testOptions(t *testing.T, parallel int) *cli.Options {
	t.Helper()
	o := options()
	o.ClassName = "test"
	o.Reps = 2
	o.Kernels = "CG,SP"
	o.Policies = "os,spcd"
	o.Threads = 8
	o.Seed = 0
	o.Parallel = parallel
	if err := o.Resolve(); err != nil {
		t.Fatal(err)
	}
	return o
}

// renderReport runs the sweep and renders the CSV export to a buffer.
func renderReport(t *testing.T, o *cli.Options) []byte {
	t.Helper()
	header, tables, err := buildReport(o, "", nil)
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	var buf bytes.Buffer
	if err := renderCSV(&buf, header, tables); err != nil {
		t.Fatalf("renderCSV: %v", err)
	}
	return buf.Bytes()
}

// normalizeBuild replaces the `# build:` metadata line, which embeds the git
// revision and Go version of the test binary, with a stable placeholder so
// the golden file does not churn on every commit or toolchain bump.
func normalizeBuild(b []byte) []byte {
	lines := strings.Split(string(b), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "# build:") {
			lines[i] = "# build: <build>"
		}
	}
	return []byte(strings.Join(lines, "\n"))
}

// TestCSVGolden pins the CSV schema: the run-metadata header lines and the
// per-table layout (title comment, column row, data rows). Run with -update
// to accept intentional schema or model changes.
func TestCSVGolden(t *testing.T) {
	got := normalizeBuild(renderReport(t, testOptions(t, 1)))
	golden := filepath.Join("testdata", "golden.csv")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("CSV output differs from %s.\nRe-run with -update if the change is intentional.\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestParallelOutputByteIdentical asserts the tentpole guarantee at the CLI
// layer: the rendered report (header + tables + CSV) is byte-for-byte the
// same whether the sweep ran sequentially or on a worker pool.
func TestParallelOutputByteIdentical(t *testing.T) {
	base := renderReport(t, testOptions(t, 1))
	for _, workers := range []int{4, 16} {
		got := renderReport(t, testOptions(t, workers))
		if !bytes.Equal(base, got) {
			t.Errorf("-parallel %d output differs from -parallel 1\n--- parallel 1 ---\n%s\n--- parallel %d ---\n%s",
				workers, base, workers, got)
		}
	}
}
