// Command spcdserve runs the long-running multi-tenant serving scenario:
// tenants arrive, switch phases and depart on a deterministic virtual-time
// schedule while the selected placement policy adapts online under a hard
// per-interval migration budget (the churn governor). It prints the scenario
// report — run-level adaptation totals plus one line per tenant with its
// admission history and slowdown distribution.
//
// Usage:
//
//	spcdserve                                  # 3 tenants, class tiny, spcd
//	spcdserve -tenants 4 -class small -policy tlb
//	spcdserve -policy static -faults 0.5       # static baseline under faults
//	spcdserve -check -checkshards              # prove byte-identity at
//	                                           # parallelism 1/8 and shards 1/4
//	spcdserve -csv tenants.csv -events events.log
//
// Determinism: the report is a pure function of (schedule, policy, seed,
// fault plan). -check re-derives it as a 4-job batch at RunJobs parallelism
// 1 and 8; -checkshards re-runs the scenario on the epoch-sharded engine at
// 1 and 4 workers. Both must be byte-identical or the command fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spcd"
	"spcd/internal/cli"
	"spcd/internal/scenario"
)

func main() {
	o := &cli.Options{Flags: cli.Class | cli.Seed | cli.Shards, ClassName: "tiny", Seed: 42}
	o.Register(flag.CommandLine)
	var (
		tenants   = o.Count("tenants", 3, "tenants in the canonical churn schedule (>=3 exercises arrival, phase switch and departure)")
		policyStr = flag.String("policy", "spcd", "serving policy: static, os, spcd, tlb, hwc")
		budget    = o.Count("budget", 4, "churn governor: max thread moves per interval")
		intervals = o.Count("maxintervals", 0, "watchdog bound on intervals (0 = default 1024)")
		faults    = o.Fraction("faults", 0, "fault intensity in [0,1]; >0 arms the default plan incl. admission failures")
		csvPath   = flag.String("csv", "", "write per-tenant rows as CSV to this path")
		events    = flag.String("events", "", "write the adaptation event log (admissions, remaps, deferrals) to this path")
		check     = flag.Bool("check", false, "run a 4-seed batch at parallelism 1 and 8 and fail unless reports are byte-identical")
		chkShards = flag.Bool("checkshards", false, "also run the scenario at shards 1 and 4 and fail unless byte-identical")
	)
	o.Parse()

	spec := spcd.DefaultScenario(*tenants, o.Class(), o.Seed)
	spec.Policy = *policyStr
	spec.MigrationBudget = *budget
	spec.MaxIntervals = *intervals
	spec.Options = o.RunOptions()
	if *faults > 0 {
		spec.Options.Faults = spcd.DefaultFaultPlan(o.Seed, *faults)
	}

	if *check {
		checkParallelism(spec)
	}
	if *chkShards {
		checkShardIdentity(spec)
	}

	var probe *spcd.Probe
	if *events != "" {
		probe = spcd.NewProbe(spcd.ObsOptions{})
		spec.Options.Probe = probe
	}
	rep, err := spcd.Serve(spec)
	cli.Check(err)
	fmt.Print(rep.Render())
	if *csvPath != "" {
		cli.Check(cli.WriteFile(*csvPath, rep.WriteCSV))
	}
	if *events != "" {
		cli.Check(cli.WriteFile(*events, func(f io.Writer) error { return writeEvents(f, probe) }))
	}
}

// checkParallelism reruns a 4-seed batch of the spec at RunJobs parallelism
// 1 and 8; the rendered reports must be byte-identical.
func checkParallelism(spec spcd.Scenario) {
	specs := make([]spcd.Scenario, 4)
	for i := range specs {
		s := spec
		s.MasterSeed = spec.MasterSeed + int64(i)
		s.Options.Probe = nil
		specs[i] = s
	}
	seq, errs1 := scenario.RunJobs(specs, 1)
	par, errs8 := scenario.RunJobs(specs, 8)
	for i := range specs {
		cli.Check(errs1[i])
		cli.Check(errs8[i])
		if seq[i].Render() != par[i].Render() {
			cli.Fatal(fmt.Errorf("determinism check failed: job %d differs between parallelism 1 and 8", i))
		}
	}
	fmt.Fprintln(os.Stderr, "check ok: reports byte-identical at parallelism 1 and 8")
}

// checkShardIdentity reruns the scenario on the epoch-sharded engine at 1
// and 4 intra-interval workers; the reports must be byte-identical.
func checkShardIdentity(spec spcd.Scenario) {
	s1, s4 := spec, spec
	s1.Options.Shards, s4.Options.Shards = 1, 4
	s1.Options.Probe, s4.Options.Probe = nil, nil
	r1, err := spcd.Serve(s1)
	cli.Check(err)
	r4, err := spcd.Serve(s4)
	cli.Check(err)
	if r1.Render() != r4.Render() {
		cli.Fatal(fmt.Errorf("shard determinism check failed: shards 1 and 4 disagree"))
	}
	fmt.Fprintln(os.Stderr, "check ok: report byte-identical at shards 1 and 4")
}

// writeEvents dumps the scenario's adaptation events, one per line at global
// virtual time.
func writeEvents(f io.Writer, probe *spcd.Probe) error {
	for _, ev := range probe.Events() {
		if _, err := fmt.Fprintf(f, "%d %s.%s", ev.Time, ev.Cat, ev.Name); err != nil {
			return err
		}
		for _, a := range ev.Args {
			if s := a.StrVal(); s != "" {
				if _, err := fmt.Fprintf(f, " %s=%s", a.Key, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(f, " %s=%d", a.Key, a.UintVal()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(f); err != nil {
			return err
		}
	}
	return nil
}
