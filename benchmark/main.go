// Command benchmark measures the simulator's own host cost: how many
// simulated accesses it retires per host second, what a run costs to set
// up, and how much memory it allocates and holds, on four workloads; with
// -trace 1 it splits a pass's host time over the simulator's layers.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload npb-small --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh                      # every workload, untraced
//
// Each workload is measured in child processes of its own, one at a time;
// the parent merges their results, prints every metric with its unit and
// sample count, writes a JSON record, and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// measureTimeout stops a workload's measurement that overran its fixed
// length by far.
const measureTimeout = 170 * time.Second

// memoryShare is the share of an untraced run's length given to the process
// whose peak RSS is max_rss_mb; the timed process gets the rest.
const memoryShare = 0.25

func main() {
	var (
		workload = flag.String("workload", "all", "workload to measure, or all")
		seed     = flag.Int64("seed", 1, "seed every input is derived from")
		seconds  = flag.Float64("seconds", 15, "how long to measure each workload")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
		record   = flag.String("record", ".bench_build/records", "directory for the JSON records (empty: none)")
		child    = flag.String("child", "", "measure one workload in this process and print its raw result: timed, traced or memory")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	all := benchWorkloads(benchScale)
	var chosen []*benchWorkload
	for _, wl := range all {
		if *workload == "all" || *workload == wl.name {
			chosen = append(chosen, wl)
		}
	}
	if len(chosen) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	if *child != "" {
		var res *runResult
		var err error
		switch wl := chosen[0]; *child {
		case "memory":
			res = memoryRun(wl, *seed, *seconds)
		case "timed", "traced":
			runtime.GOMAXPROCS(wl.procs)
			res, err = measure(wl, *seed, *seconds, *child == "traced")
		default:
			err = fmt.Errorf("unknown -child mode %q", *child)
		}
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	h := fingerprint()
	fmt.Printf("# host: %d-core, GOMAXPROCS %d, %s, %s; seed %d; held-out seed for confirming claims: 7\n",
		h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion, *seed)
	final := output{Correct: true, Metrics: map[string]value{}}
	for _, wl := range chosen {
		res, err := measureWorkload(wl.name, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		out, rec := report(res, h)
		if *record != "" {
			if err := writeRecord(*record, rec); err != nil {
				fatal(err)
			}
		}
		final.Correct = final.Correct && out.Correct
		final.Attempted += out.Attempted
		final.Failed += out.Failed
		for k, v := range out.Metrics {
			if len(chosen) > 1 {
				k = wl.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// measureWorkload measures one workload in child processes. Traced, one
// process does it all. Untraced, a first process runs the workload's passes
// under a stop-the-world collector, and its peak RSS is max_rss_mb; a second
// one times them at the workload's own GOMAXPROCS (see benchWorkload.procs).
// With the usual concurrent collector, how far the heap overshoots the
// collector's goal depends on how fast marking keeps up on a shared host:
// five runs of one seed of npb-small peaked between 50 and 69 MB, and more
// widely on one core. Collecting with the world stopped makes the peak a
// property of the program's allocations: the same five runs stayed within
// 3%.
func measureWorkload(name string, seed int64, seconds float64, trace bool) (*runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), measureTimeout)
	defer cancel()
	if trace {
		res, _, err := runChild(ctx, name, seed, seconds, "traced")
		return res, err
	}
	mem, rssMB, err := runChild(ctx, name, seed, seconds*memoryShare, "memory", "GODEBUG=gcstoptheworld=1")
	if err != nil {
		return nil, err
	}
	res, _, err := runChild(ctx, name, seed, seconds*(1-memoryShare), "timed")
	if err != nil {
		return nil, err
	}
	addMemory(res, mem, rssMB)
	return res, nil
}

// addMemory merges the memory process's result into the timed one: its runs
// and failures, its peak RSS, and a check that it produced the same output.
func addMemory(res, mem *runResult, rssMB float64) {
	res.Samples["max_rss_mb"] = []float64{rssMB}
	res.MemoryPasses = mem.Passes
	res.Attempted += mem.Attempted
	res.Failed += mem.Failed
	res.Errors = append(res.Errors, mem.Errors...)
	if mem.Digest != res.Digest {
		res.fail(fmt.Errorf("memory passes' digest %s differs from the timed passes' %s", mem.Digest, res.Digest))
	}
}

// runChild measures one workload in a child process, with env added to its
// environment, and returns its result and peak resident set.
func runChild(ctx context.Context, name string, seed int64, seconds float64, mode string, env ...string) (*runResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Env = append(os.Environ(), env...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s: measurement process: %w", name, err)
	}
	var res runResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, 0, fmt.Errorf("%s: measurement result: %w", name, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, errors.New("peak RSS is not available on this platform")
	}
	// Linux reports ru_maxrss in KiB.
	return &res, float64(ru.Maxrss) * 1024 / 1e6, nil
}

// output is the final line the benchmark prints.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"sim_accesses_per_s", "accesses/s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
}

// recordDoc is the JSON record of one workload's run.
type recordDoc struct {
	Host           host               `json:"host"`
	HostLabel      string             `json:"host_label"`
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Mode           string             `json:"mode"`
	Time           string             `json:"time"`
	Correct        bool               `json:"correct"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	FailedFrac     float64            `json:"failed_frac"`
	Errors         []string           `json:"errors,omitempty"`
	Digest         string             `json:"digest"`
	Passes         int                `json:"passes"`
	MemoryPasses   int                `json:"memory_passes,omitempty"`
	Procs          int                `json:"measured_gomaxprocs"`
	SetupIntervals int                `json:"setup_intervals,omitempty"`
	EndToEnd       map[string]summary `json:"end_to_end,omitempty"`
	Layers         []metric           `json:"layers,omitempty"`
	NotMeasured    []string           `json:"not_measured,omitempty"`
	Configs        []configLayers     `json:"configs,omitempty"`
	ClockReadNs    float64            `json:"clock_read_ns,omitempty"`
}

// report prints a workload's metrics and builds its final-line entry and
// its record.
func report(res *runResult, h host) (output, recordDoc) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	rec := recordDoc{Host: h, HostLabel: fmt.Sprintf("%d-core host", h.NumCPU), Workload: res.Workload,
		Seed: res.Seed, Mode: mode, Time: time.Now().UTC().Format(time.RFC3339),
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Errors: res.Errors,
		Digest: res.Digest, Passes: res.Passes, MemoryPasses: res.MemoryPasses, Procs: res.Procs, SetupIntervals: res.SetupIntervals, NotMeasured: res.NotMeasured, Configs: res.Configs,
		ClockReadNs: res.ClockReadNs}
	if res.Attempted > 0 {
		rec.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	out := output{Correct: rec.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}

	fmt.Printf("# %s (%s, seed %d, %d passes, %s, GOMAXPROCS %d): digest %s, %d of %d runs failed\n",
		res.Workload, mode, res.Seed, res.Passes, rec.HostLabel, res.Procs, res.Digest, res.Failed, res.Attempted)
	if res.MemoryPasses > 0 {
		fmt.Printf("# max_rss_mb: peak RSS of a separate process that ran %d passes under a stop-the-world collector\n", res.MemoryPasses)
	}
	if res.SetupIntervals > 0 {
		fmt.Printf("# set-up pass: %d serving intervals\n", res.SetupIntervals)
	}
	for _, e := range res.Errors {
		fmt.Printf("#   error: %s\n", e)
	}
	if !res.Trace {
		rec.EndToEnd = map[string]summary{}
		for _, m := range endToEnd {
			s := summarize(res.Samples[m.name])
			rec.EndToEnd[m.name] = s
			out.Metrics[m.name] = value{Value: s.Median, Unit: m.unit}
			fmt.Printf("%-20s %-11s median %-14.6g q1 %-14.6g q3 %-14.6g n=%d, %s\n",
				m.name, m.unit, s.Median, s.Q1, s.Q3, s.N, tailNote(res.Samples[m.name]))
		}
		for _, m := range []struct{ name, unit string }{{"raw_accesses_per_s", "accesses/s"}, {"setup_raw_s", "s"}, {"host_probe_ms", "ms"}} {
			s := summarize(res.Samples[m.name])
			rec.EndToEnd[m.name] = s
			fmt.Printf("# %-18s %-11s median %-14.6g q1 %-14.6g q3 %-14.6g n=%d, host time not normalised\n",
				m.name, m.unit, s.Median, s.Q1, s.Q3, s.N)
		}
		return out, rec
	}
	rec.Layers = res.Layers
	for _, m := range res.Layers {
		out.Metrics[m.Name] = value{Value: m.Val, Unit: m.Unit}
		fmt.Printf("%-32s %-14s %.6g\n", m.Name, m.Unit, m.Val)
	}
	if len(res.NotMeasured) > 0 {
		fmt.Printf("# not measured on %s (printed as 0): %s\n", res.Workload, strings.Join(res.NotMeasured, ", "))
	}
	for _, c := range res.Configs {
		var cols []string
		for _, m := range c.Metrics {
			cols = append(cols, fmt.Sprintf("%s=%.4g", m.Name, m.Val))
		}
		fmt.Printf("#   %-10s %s\n", c.Key, strings.Join(cols, " "))
	}
	return out, rec
}

// tailNote gives the highest percentile of xs with at least ten samples
// beyond it, p = 100 * (1 - 10/n), or says that there is none above the
// median.
func tailNote(xs []float64) string {
	n := len(xs)
	p := int(math.Floor(100 * (1 - 10/float64(n))))
	if p <= 50 {
		return "no tail percentile (none above the median has 10 samples beyond it)"
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	return fmt.Sprintf("p%d %.6g", p, v[int(math.Ceil(float64(p*n)/100))-1])
}

// writeRecord writes rec under dir, surfacing write and close errors.
func writeRecord(dir string, rec recordDoc) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", rec.Workload, rec.Seed, rec.Mode))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
