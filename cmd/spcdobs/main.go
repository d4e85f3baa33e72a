// Command spcdobs runs a workload under one or more policies with the
// observability layer enabled and writes the artifacts: a Chrome
// trace_event JSON (open it in chrome://tracing or https://ui.perfetto.dev)
// and a CSV metrics time series per policy, plus one merged trace with every
// policy's run in its own pid namespace for side-by-side comparison. It also
// prints, for policies that remap, how the cross-socket cache-to-cache
// traffic changed after the first remapping — the dynamic view of the
// paper's Figure 11.
//
// Usage:
//
//	spcdobs -bench CG -class tiny                  # os + spcd, files in .
//	spcdobs -bench SP -policies spcd -dir out/
//	spcdobs -bench CG -class test -check           # validate the artifacts
//	spcdobs -policies os,random,oracle,spcd -parallel 4
//
// The policies run as one sweep on the deterministic parallel runner
// (internal/sweep): each policy is one experiment with its own probe, so
// every artifact — including the merged trace — is byte-identical for every
// -parallel value. All probe timestamps are simulated cycles; the sweep's
// own progress events (sweep.start / exp.done / sweep.done) land on a
// dedicated "sweep" lane of the merged trace with the canonical experiment
// index as virtual time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"spcd"
	"spcd/internal/cli"
	"spcd/internal/obs"
	"spcd/internal/runtimeobs"
	"spcd/internal/sweep"
)

func main() {
	o := &cli.Options{
		Flags: cli.Bench | cli.Suite | cli.Class | cli.Threads | cli.Seed | cli.Policies |
			cli.Parallel | cli.Shards | cli.Shootdown | cli.RuntimeObs | cli.Profile,
		Bench: "CG", Suite: "nas", ClassName: "tiny", Threads: 8, Seed: 1, Policies: "os,spcd",
		Parallel: 1, Shootdown: "none",
	}
	o.Register(flag.CommandLine)
	dir := flag.String("dir", ".", "output directory for trace/timeseries files")
	sample := flag.Uint64("sample", 0, "snapshot interval in cycles (0 = ~256 rows per run)")
	check := flag.Bool("check", false, "re-read the written artifacts and validate them")
	o.Parse()

	w, pols := o.Workload(), cli.Split(o.Policies)

	// One experiment per policy, each with its own probe; the workload
	// instance is shared (NewRun is pure) so the pc suite works too. Probes
	// are created up front — Observe runs on concurrent workers, so it only
	// indexes, never allocates shared state.
	configs := make([]sweep.Config, len(pols))
	probes := make([]*spcd.Probe, len(pols))
	probeFor := make(map[string]*spcd.Probe, len(pols))
	for i, pol := range pols {
		configs[i] = sweep.Config{Workload: w, Policy: pol}
		probes[i] = spcd.NewProbe(spcd.ObsOptions{SampleIntervalCycles: *sample})
		probeFor[pol] = probes[i]
	}
	sweepProbe := spcd.NewProbe(spcd.ObsOptions{})
	runner := sweep.Runner{
		Machine:     o.Machine(),
		Parallelism: o.Parallel,
		Seeder:      func(sweep.Config) int64 { return o.Seed },
		Observe:     func(c sweep.Config) *obs.Probe { return probeFor[c.Policy] },
		Options:     o.RunOptions(),
	}
	runner.Options.Probe = sweepProbe
	rs, err := runner.Run(configs)
	cli.Check(err)
	cli.Check(sweep.FirstErr(rs))

	// Report and export in canonical (flag) order regardless of which worker
	// finished first.
	merged := []spcd.TraceRun{{Name: "sweep", Probe: sweepProbe}}
	for i, pol := range pols {
		pr := probes[i]
		fmt.Println(rs[i].Metrics)
		fmt.Printf("  obs: %d events, %d samples, %d metric columns\n",
			len(pr.Events()), len(pr.Samples()), len(pr.Registry().Columns()))
		reportRemapEffect(pr)

		tracePath := filepath.Join(*dir, fmt.Sprintf("trace_%s_%s.json", w.Name(), pol))
		csvPath := filepath.Join(*dir, fmt.Sprintf("timeseries_%s_%s.csv", w.Name(), pol))
		cli.Check(cli.WriteFile(tracePath, func(f io.Writer) error { return spcd.WriteChromeTrace(f, pr) }))
		cli.Check(cli.WriteFile(csvPath, func(f io.Writer) error { return spcd.WriteTimeSeriesCSV(f, pr) }))
		if *check {
			cli.Check(checkTrace(tracePath))
			cli.Check(checkCSV(csvPath))
			fmt.Fprintf(os.Stderr, "checked %s, %s\n", tracePath, csvPath)
		}
		merged = append(merged, spcd.TraceRun{Name: pol, Probe: pr})
	}

	mergedPath := filepath.Join(*dir, fmt.Sprintf("trace_%s_all.json", w.Name()))
	cli.Check(cli.WriteFile(mergedPath, func(f io.Writer) error { return spcd.WriteChromeTraceMerged(f, merged) }))
	if *check {
		cli.Check(checkTrace(mergedPath))
		fmt.Fprintf(os.Stderr, "checked %s\n", mergedPath)
	}

	o.Finish()
	if rtc := o.Runtime(); rtc != nil {
		// Combined trace: virtual-time runs and host-time lanes side by side
		// in one file, each process in its own pid namespace. Virtual and
		// host timestamps use different units (cycles vs microseconds), so
		// the lanes are for structural comparison, not alignment.
		combinedPath := filepath.Join(o.RuntimeDir, fmt.Sprintf("trace_%s_combined.json", w.Name()))
		cli.Check(cli.WriteFile(combinedPath, func(f io.Writer) error {
			sink := obs.NewTraceSink()
			basePid := obs.AppendTraceRuns(sink, merged, 0)
			runtimeobs.AppendTrace(sink, rtc, basePid)
			return sink.Flush(f)
		}))
		if *check {
			cli.Check(runtimeobs.CheckArtifacts(o.RuntimeDir, o.Shards > 0))
			cli.Check(checkTrace(combinedPath))
			fmt.Fprintf(os.Stderr, "checked runtime artifacts in %s\n", o.RuntimeDir)
		}
	}
}

// reportRemapEffect prints the mean per-sample cross-socket c2c traffic
// before and after the policy's first remapping — the number the paper's
// argument hinges on (communication-aware placement cuts cross-socket
// transactions). The before-window starts at the end of the serial
// initialization phase (the engine's init.done event): the master thread
// touching pages alone generates no communication, and counting that
// stretch would dilute the baseline to near zero.
func reportRemapEffect(pr *spcd.Probe) {
	var remapTime, initDone uint64
	found := false
	for _, e := range pr.Events() {
		if e.Cat != "engine" {
			continue
		}
		switch e.Name {
		case "init.done":
			initDone = e.Time
		case "remap":
			if !found {
				remapTime = e.Time
				found = true
			}
		}
	}
	if !found || remapTime <= initDone {
		return
	}
	col := pr.Registry().ColumnIndex("cache.c2c_cross_socket")
	if col < 0 {
		return
	}
	var beforeSum, afterSum float64
	var beforeN, afterN int
	prev := 0.0
	for _, s := range pr.Samples() {
		delta := s.Values[col] - prev
		prev = s.Values[col]
		if s.Time <= initDone {
			continue // serial init: no parallel threads, no communication
		}
		if s.Time <= remapTime {
			beforeSum += delta
			beforeN++
		} else {
			afterSum += delta
			afterN++
		}
	}
	if beforeN == 0 || afterN == 0 {
		return
	}
	before, after := beforeSum/float64(beforeN), afterSum/float64(afterN)
	change := 0.0
	if before != 0 {
		change = 100 * (after - before) / before
	}
	fmt.Printf("  obs: first remap at cycle %d; mean cross-socket c2c per sample %.1f before -> %.1f after (%+.1f%%)\n",
		remapTime, before, after, change)
}

// checkTrace validates that the written file parses as a Chrome trace with
// at least one event.
func checkTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: invalid trace JSON: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s: trace has no events", path)
	}
	return nil
}

// checkCSV validates the time-series header and that every row has the
// header's width.
func checkCSV(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 {
		return fmt.Errorf("%s: want a header and at least one sample row, got %d lines", path, len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_cycles,") {
		return fmt.Errorf("%s: bad header %q", path, lines[0])
	}
	width := strings.Count(lines[0], ",")
	for i, ln := range lines[1:] {
		if strings.Count(ln, ",") != width {
			return fmt.Errorf("%s: row %d has %d columns, header has %d",
				path, i+1, strings.Count(ln, ",")+1, width+1)
		}
	}
	return nil
}
