// Command perfbench measures the simulator's own throughput — simulated
// memory accesses retired per wall-clock second — across the NPB suite, and
// records the result in BENCH_engine.json so the performance trajectory of
// the engine hot path (engine.Run -> vm.Access -> cache.Access) is tracked
// across PRs. It complements the per-package Benchmark* functions: those
// isolate one layer, this measures the end-to-end pipeline the experiments
// actually pay for.
//
// Usage:
//
//	perfbench                                  # full sweep, writes BENCH_engine.json
//	perfbench -class small -reps 3             # best-of-3 per configuration
//	perfbench -kernels CG,SP -policies os      # subset
//	perfbench -parallel 1                      # uncontended timings (the refresh path)
//	perfbench -shards 4 -o BENCH_shards.json   # time the epoch-sharded engine
//	perfbench -cpuprofile cpu.pprof            # profile the sweep
//
// The sweep runs on the deterministic parallel runner (internal/sweep):
// -parallel N bounds concurrent experiments (0 = GOMAXPROCS, 1 = sequential).
// Parallel workers contend for cores, so per-experiment wall times are only
// comparable across records taken at -parallel 1 — the canonical
// BENCH_engine.json refresh (`make bench`) pins that, and the JSON records
// the worker bound used. Wall-clock timing makes this tool inherently
// nondeterministic in its *measurements*; the simulation results it times
// remain seed-deterministic, and the JSON field order is fixed so diffs stay
// reviewable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"spcd"
	"spcd/internal/benchfmt"
	"spcd/internal/buildinfo"
	"spcd/internal/cli"
	"spcd/internal/sweep"
)

func main() {
	o := &cli.Options{
		Flags: cli.Kernels | cli.Class | cli.Threads | cli.Seed | cli.Policies | cli.Reps |
			cli.Parallel | cli.Shards | cli.Shootdown | cli.RuntimeObs | cli.Profile,
		ClassName: "small", Threads: 32, Seed: 1, Policies: "os,spcd", Reps: 3, Shootdown: "none",
	}
	o.Register(flag.CommandLine)
	shardaxis := o.Counts("shardaxis", "", "comma-separated shard counts to time in sequence (e.g. 0,4); overrides -shards, first entry is the baseline")
	out := flag.String("o", "BENCH_engine.json", "output JSON path (empty: stdout only)")
	history := flag.String("history", "", "append the record to this JSONL history (e.g. BENCH_history.jsonl) for cmd/benchdiff")
	o.Parse()

	cls, threads, seed, reps := o.Class(), o.Threads, o.Seed, o.Reps
	names := cli.Split(o.Kernels)
	if len(names) == 0 {
		names = spcd.NPBNames
	}
	pols := cli.Split(o.Policies)

	workers := o.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: note: %d workers contend for cores; "+
			"per-experiment times are only comparable across -parallel 1 records\n", workers)
	}
	axis := *shardaxis
	if len(axis) == 0 {
		axis = []int{o.Shards}
	}

	bench := benchfmt.File{Class: cls.Name, Threads: threads, Parallel: workers, Shards: axis[0],
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}

	// timeSweep runs one full timing sweep at the given shard count. Every
	// rep of a configuration runs the same seed on purpose: this tool times
	// identical work and keeps the minimum, so repetition narrows the
	// measurement, not the workload.
	timeSweep := func(shardCount int) (results []benchfmt.Result, totalAcc uint64, totalSec float64) {
		configs := sweep.Product("nas", names, cls, threads, pols, reps)
		start := time.Now()
		runner := sweep.Runner{
			Machine:     o.Machine(),
			Parallelism: o.Parallel,
			Shards:      shardCount,
			Runtime:     o.Runtime(),
			Seeder:      func(sweep.Config) int64 { return seed },
			//lint:ignore determinism-flow Now feeds only Result.WallNanos, the informational wall-clock column that DESIGN.md excludes from the determinism contract.
			Now: func() int64 { return int64(time.Since(start)) },
		}
		rs, err := runner.Run(configs)
		cli.Check(err)
		cli.Check(sweep.FirstErr(rs))

		// Results arrive in canonical kernel-major, policy, rep-minor order:
		// consecutive groups of reps are one configuration.
		for i := 0; i < len(rs); i += reps {
			group := rs[i : i+reps]
			c := group[0].Config
			r := benchfmt.Result{Kernel: c.Kernel, Policy: c.Policy, Class: cls.Name,
				Threads: threads, Seed: seed, Reps: reps}
			best := group[0].WallNanos
			for _, run := range group {
				if run.WallNanos < best {
					best = run.WallNanos
				}
				r.SimAccesses = run.Metrics.Cache.Accesses
			}
			r.WallSeconds = time.Duration(best).Seconds()
			if r.WallSeconds > 0 {
				r.AccessesPerSec = float64(r.SimAccesses) / r.WallSeconds
				r.NsPerAccess = r.WallSeconds * 1e9 / float64(r.SimAccesses)
			}
			totalAcc += r.SimAccesses
			totalSec += r.WallSeconds
			results = append(results, r)
			fmt.Fprintf(os.Stderr, "%-4s %-6s %9.0f accesses/s  (%.1f ns/access, %d accesses in %.3fs, shards=%d)\n",
				r.Kernel, r.Policy, r.AccessesPerSec, r.NsPerAccess, r.SimAccesses, r.WallSeconds, shardCount)
		}
		return results, totalAcc, totalSec
	}

	for i, shardCount := range axis {
		results, totalAcc, totalSec := timeSweep(shardCount)
		point := benchfmt.AxisPoint{Shards: shardCount, TotalSeconds: totalSec}
		if totalSec > 0 {
			point.AccessesPerSec = float64(totalAcc) / totalSec
			point.NsPerAccess = totalSec * 1e9 / float64(totalAcc)
		}
		if i == 0 {
			// The first axis point is the canonical record: it owns the
			// per-configuration detail and the top-level aggregates.
			bench.Results = results
			bench.TotalAccesses = totalAcc
			bench.TotalSeconds = totalSec
			bench.AccessesPerSec = point.AccessesPerSec
			bench.NsPerAccess = point.NsPerAccess
			point.SpeedupVsFirst = 1
		} else if bench.AccessesPerSec > 0 {
			point.SpeedupVsFirst = point.AccessesPerSec / bench.AccessesPerSec
		}
		if len(axis) > 1 {
			bench.ShardAxis = append(bench.ShardAxis, point)
		}
		fmt.Fprintf(os.Stderr, "aggregate: %.0f accesses/s (%.1f ns/access) over %d accesses in %.3fs at shards=%d (x%.2f vs first)\n",
			point.AccessesPerSec, point.NsPerAccess, totalAcc, totalSec, shardCount, point.SpeedupVsFirst)
	}

	blob, err := json.MarshalIndent(&bench, "", "  ")
	cli.Check(err)
	blob = append(blob, '\n')
	write := func(w io.Writer) error { _, err := w.Write(blob); return err }
	if *out == "" {
		cli.Check(write(os.Stdout))
	} else {
		cli.Check(cli.WriteFile(*out, write))
	}

	if *history != "" {
		entry := benchfmt.HistoryEntry{
			Time:  time.Now().UTC().Format(time.RFC3339),
			Build: buildinfo.Describe(),
			File:  bench,
		}
		cli.Check(benchfmt.AppendHistory(*history, entry))
		fmt.Fprintf(os.Stderr, "appended to %s\n", *history)
	}
	o.Finish()
}
