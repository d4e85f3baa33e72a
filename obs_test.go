package spcd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"spcd"
)

// runObservedArtifacts executes one observed CG run and returns the two
// exported artifacts.
func runObservedArtifacts(t *testing.T, policy string, seed int64) (trace, csv []byte) {
	t.Helper()
	mach := spcd.DefaultMachine()
	w, err := spcd.NPB("CG", 8, spcd.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	pr := spcd.NewProbe(spcd.ObsOptions{})
	if _, err := spcd.Run(mach, w, policy, seed, spcd.RunOptions{Probe: pr}); err != nil {
		t.Fatal(err)
	}
	var tb, cb bytes.Buffer
	if err := spcd.WriteChromeTrace(&tb, pr); err != nil {
		t.Fatal(err)
	}
	if err := spcd.WriteTimeSeriesCSV(&cb, pr); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), cb.Bytes()
}

// TestObservedArtifactsDeterministic is the obs determinism gate: two
// same-seed runs must export byte-identical Chrome-trace JSON and CSV —
// the property that makes traces diffable across machines and commits.
func TestObservedArtifactsDeterministic(t *testing.T) {
	for _, policy := range []string{"os", "spcd"} {
		t.Run(policy, func(t *testing.T) {
			t1, c1 := runObservedArtifacts(t, policy, 42)
			t2, c2 := runObservedArtifacts(t, policy, 42)
			if !bytes.Equal(t1, t2) {
				t.Error("same-seed Chrome traces differ")
			}
			if !bytes.Equal(c1, c2) {
				t.Error("same-seed CSV time series differ")
			}

			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(t1, &doc); err != nil {
				t.Fatalf("trace is not valid JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Error("trace has no events")
			}
			lines := strings.Split(strings.TrimRight(string(c1), "\n"), "\n")
			if len(lines) < 3 {
				t.Errorf("CSV has %d lines; want a header and multiple samples", len(lines))
			}
			if !strings.HasPrefix(lines[0], "time_cycles,") {
				t.Errorf("CSV header = %q", lines[0])
			}
		})
	}
}

// TestExperimentObserve checks a one-workload sweep's progress events:
// Options.Probe records sweep.start, one exp.done per config in canonical
// order, and sweep.done.
func TestExperimentObserve(t *testing.T) {
	w, err := spcd.NPB("CG", 8, spcd.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	progress := spcd.NewProbe(spcd.ObsOptions{})
	runWorkload(t, spcd.Sweep{
		Machine:  spcd.DefaultMachine(),
		Workload: w,
		Policies: []string{"os", "spcd"},
		Reps:     2,
		Options:  spcd.RunOptions{Probe: progress},
	})
	var got []string
	for _, ev := range progress.Events() {
		line := fmt.Sprintf("%d %s", ev.Time, ev.Name)
		for _, a := range ev.Args {
			if a.Key == "key" {
				line += " " + a.StrVal()
			}
		}
		got = append(got, line)
	}
	want := []string{
		"0 sweep.start",
		"1 exp.done CG/os/r0", "2 exp.done CG/os/r1",
		"3 exp.done CG/spcd/r0", "4 exp.done CG/spcd/r1",
		"5 sweep.done",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("progress events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
