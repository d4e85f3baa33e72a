// Command npbsuite runs the full NAS-suite evaluation of the paper: every
// kernel under the mapping policies, repeated with several seeds, and
// prints the series behind Figures 8-15 (normalized to the OS baseline)
// plus the Table II absolute rows.
//
// Usage:
//
//	npbsuite -class small -reps 3                   # all metrics, all kernels
//	npbsuite -metric time -kernels SP,BT,FT         # one figure, some kernels
//	npbsuite -policies os,spcd,tlb,hwc -csv out.csv # comparators + CSV export
//	npbsuite -parallel 8                            # bound the worker pool
//	npbsuite -shards 4 -parallel 1                  # epoch-sharded engine inside each run
//
// The sweep fans out over a bounded worker pool (internal/sweep):
// -parallel N bounds concurrent experiments, 0 selects GOMAXPROCS and 1
// preserves the sequential path. The printed tables and the CSV are
// byte-identical for every -parallel value — each experiment's seed is
// derived from (-seed, config key), never from scheduling — which is why
// the run-metadata header does not record the worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"spcd"
	"spcd/internal/buildinfo"
	"spcd/internal/cli"
	"spcd/internal/report"
)

var figureForMetric = map[spcd.Metric]string{
	spcd.MetricTime:       "Figure 8  — execution time",
	spcd.MetricL2MPKI:     "Figure 9  — L2 cache MPKI",
	spcd.MetricL3MPKI:     "Figure 10 — L3 cache MPKI",
	spcd.MetricC2C:        "Figure 11 — cache-to-cache transactions",
	spcd.MetricProcEnergy: "Figure 12 — total processor energy",
	spcd.MetricDRAMEnergy: "Figure 13 — total DRAM energy",
	spcd.MetricProcEPI:    "Figure 14 — processor energy per instruction",
	spcd.MetricDRAMEPI:    "Figure 15 — DRAM energy per instruction",
}

var figureMetrics = []spcd.Metric{
	spcd.MetricTime, spcd.MetricL2MPKI, spcd.MetricL3MPKI, spcd.MetricC2C,
	spcd.MetricProcEnergy, spcd.MetricDRAMEnergy, spcd.MetricProcEPI, spcd.MetricDRAMEPI,
}

// options returns npbsuite's shared flags with its defaults: every kernel
// (empty -kernels) under os,random,oracle,spcd (empty -policies; tlb and
// hwc are also available), 3 repetitions (the paper uses 10). Sweep
// results are identical for every -parallel value, and a -runtimeobs
// collector is one-way: table and CSV bytes are identical with it on or
// off.
func options() *cli.Options {
	return &cli.Options{
		Flags: cli.Kernels | cli.Class | cli.Threads | cli.Seed | cli.Policies | cli.Reps |
			cli.Parallel | cli.Shards | cli.Shootdown | cli.RuntimeObs | cli.Profile,
		ClassName: "small", Threads: 32, Reps: 3, Shootdown: "none",
	}
}

func main() {
	o := options()
	o.Register(flag.CommandLine)
	metric := flag.String("metric", "", "single metric to report (default: all figures + Table II)")
	csvPath := flag.String("csv", "", "also write every table as CSV to this file")
	o.Parse()

	header, tables, err := buildReport(o, *metric, func(done, total int, key string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep %d/%d: %s: %v\n", done, total, key, err)
			return
		}
		fmt.Fprintf(os.Stderr, "sweep %d/%d: %s\n", done, total, key)
	})
	cli.Check(err)
	for _, line := range header {
		fmt.Println(line)
	}
	for _, t := range tables {
		fmt.Println()
		cli.Check(t.WriteText(os.Stdout))
	}
	if *csvPath != "" {
		cli.Check(cli.WriteFile(*csvPath, func(w io.Writer) error { return renderCSV(w, header, tables) }))
	}
	o.Finish()
}

// buildReport runs the sweep o describes and renders the metadata header
// plus report tables (only metric's figure when metric is set). progress,
// when non-nil, receives completion-order updates (it is stderr-only
// commentary: table and CSV bytes never depend on scheduling).
func buildReport(o *cli.Options, metric string, progress func(done, total int, key string, err error)) ([]string, []*report.Table, error) {
	names := cli.Split(o.Kernels)
	if len(names) == 0 {
		names = spcd.NPBNames
	}
	pols := cli.Split(o.Policies)
	if len(pols) == 0 {
		pols = spcd.PolicyNames
	}
	mach := o.Machine()

	// Self-describing output: every result file carries the configuration
	// that produced it, so archived tables can be reproduced exactly.
	header := runMetadata(mach, names, pols, o.ClassName, o.Threads, o.Reps, o.Seed)
	if o.Shards > 0 {
		// Unlike -parallel, -shards selects a different (epoch-sharded)
		// engine whose results legitimately differ from the sequential
		// engine's, so sharded tables record it. Sequential runs keep the
		// historical header byte-for-byte.
		header = append(header, fmt.Sprintf("# engine: epoch-sharded  shards: %d", o.Shards))
	}
	if mach.Shootdown.String() != "none" {
		// Like -shards: the cost model changes the numbers, so armed tables
		// record it; mode none keeps the historical header byte-for-byte.
		header = append(header, fmt.Sprintf("# shootdown: %s", mach.Shootdown))
	}

	res, err := spcd.Sweep{
		Machine:     mach,
		Kernels:     names,
		Class:       o.Class(),
		Threads:     o.Threads,
		Policies:    pols,
		Reps:        o.Reps,
		MasterSeed:  o.Seed,
		Parallelism: o.Parallel,
		Shards:      o.Shards,
		Runtime:     o.Runtime(),
		OnProgress:  progress,
	}.Run()
	if err != nil {
		return nil, nil, err
	}
	if err := res.FirstErr(); err != nil {
		return nil, nil, err
	}

	var tables []*report.Table
	metrics := figureMetrics
	if metric != "" {
		metrics = []spcd.Metric{spcd.Metric(metric)}
	}
	for _, m := range metrics {
		tables = append(tables, figureTable(names, pols, res.ByKernel, m))
	}
	if metric == "" && slices.Contains(pols, "spcd") && slices.Contains(pols, "os") {
		tables = append(tables, tableII(names, res.ByKernel))
	}
	return header, tables, nil
}

// runMetadata renders the `# key: value` header identifying a sweep: the
// run configuration, the simulated machine shape, and the build (git
// revision via the binary's embedded VCS info).
func runMetadata(mach *spcd.Machine, names, pols []string, class string, threads, reps int, seed int64) []string {
	return []string{
		"# npbsuite run metadata",
		fmt.Sprintf("# kernels: %s", strings.Join(names, ",")),
		fmt.Sprintf("# class: %s  threads: %d  reps: %d  base-seed: %d", class, threads, reps, seed),
		fmt.Sprintf("# policies: %s", strings.Join(pols, ",")),
		fmt.Sprintf("# machine: %d sockets x %d cores x %d SMT @ %.1f GHz, %d B pages",
			mach.Sockets, mach.CoresPerSocket, mach.ThreadsPerCore,
			mach.ClockHz/1e9, mach.PageSize),
		fmt.Sprintf("# build: %s  go: %s", buildinfo.Describe(), runtime.Version()),
	}
}

// renderCSV writes the metadata header and every table as CSV to w. This is
// the byte-stable schema the golden test pins: header lines, a blank line,
// then each table as a `# title` comment plus its CSV rows.
func renderCSV(w io.Writer, header []string, tables []*report.Table) error {
	for _, line := range header {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, t := range tables {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
		if err := t.WriteCSV(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// figureTable builds one of Figures 8-15: per kernel, the metric value of
// every policy normalized to the OS baseline.
func figureTable(names, pols []string, results map[string]*spcd.Results, metric spcd.Metric) *report.Table {
	title := figureForMetric[metric]
	if title == "" {
		title = string(metric)
	}
	t := report.NewTable(title+" (normalized to the OS baseline)", append([]string{"kernel"}, pols...)...)
	for _, name := range names {
		res := results[name]
		row := []string{name}
		for _, p := range pols {
			v, err := res.NormalizedMean(p, metric, "os")
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.AddRow(row...)
	}
	return t
}

// tableII builds the absolute SPCD results with the percentage change
// versus the OS mapping, mirroring Table II.
func tableII(names []string, results map[string]*spcd.Results) *report.Table {
	rows := []struct {
		label  string
		metric spcd.Metric
		format string
	}{
		{"Execution time (s)", spcd.MetricTime, "%.4f"},
		{"L2 cache MPKI", spcd.MetricL2MPKI, "%.2f"},
		{"L3 cache MPKI", spcd.MetricL3MPKI, "%.2f"},
		{"Cache-to-cache transactions", spcd.MetricC2C, "%.0f"},
		{"Total processor energy (J)", spcd.MetricProcEnergy, "%.3f"},
		{"Total DRAM energy (J)", spcd.MetricDRAMEnergy, "%.4f"},
		{"Proc. energy per inst. (nJ)", spcd.MetricProcEPI, "%.2f"},
		{"DRAM energy per inst. (nJ)", spcd.MetricDRAMEPI, "%.3f"},
	}
	t := report.NewTable("Table II — absolute SPCD results (difference to the OS mapping in parentheses)",
		append([]string{"parameter"}, names...)...)
	for _, row := range rows {
		cells := []string{row.label}
		for _, name := range names {
			res := results[name]
			sum, err := res.Summary("spcd", row.metric)
			if err != nil {
				cells = append(cells, "n/a")
				continue
			}
			pct, perr := res.PercentChange("spcd", row.metric, "os")
			if perr != nil {
				// Degenerate baseline (zero/NaN mean): show the absolute
				// value but refuse to fabricate a percentage.
				cells = append(cells, fmt.Sprintf(row.format+" (n/a)", sum.Mean))
				continue
			}
			cells = append(cells, fmt.Sprintf(row.format+" (%+.1f%%)", sum.Mean, pct))
		}
		t.AddRow(cells...)
	}
	addSimpleRow := func(label string, metric spcd.Metric, format string) {
		cells := []string{label}
		for _, name := range names {
			sum, err := results[name].Summary("spcd", metric)
			if err != nil {
				cells = append(cells, "n/a")
				continue
			}
			cells = append(cells, fmt.Sprintf(format, sum.Mean))
		}
		t.AddRow(cells...)
	}
	addSimpleRow("Number of migrations", spcd.MetricMigrations, "%.1f")
	addSimpleRow("Detection overhead", spcd.MetricDetectOvh, "%.2f%%")
	addSimpleRow("Mapping overhead", spcd.MetricMappingOvh, "%.2f%%")
	return t
}
