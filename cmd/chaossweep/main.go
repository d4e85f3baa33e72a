// Command chaossweep runs the policy grid across a fault-intensity axis and
// reports mapping-quality degradation curves: how each policy's execution
// time, cross-socket cache-to-cache traffic and migration count move as the
// fault plan (internal/faultinject) gets harsher. Intensity 0 is the
// fault-free baseline — byte-identical to a run without the fault layer —
// and every row is normalized to the same policy's intensity-0 value.
//
// Usage:
//
//	chaossweep -bench CG -class small                 # os + spcd, default axis
//	chaossweep -bench SP -policies os,spcd,tlb,hwc -intensities 0,0.5,1
//	chaossweep -bench CG -class small -check          # prove report determinism
//	chaossweep -bench CG -csv curves.csv -parallel 4
//	chaossweep -shootdown ipi -check -checkshards     # honest remap costs, byte-
//	                                                  # identity at 1/8 workers and 1/4 shards
//	chaossweep -churn -tenants 3 -class test          # SLO-under-churn axis: the
//	                                                  # multi-tenant serving scenario
//	                                                  # vs its churn-free baseline
//
// Determinism: every fault decision is drawn from streams seeded purely by
// (plan seed, run seed, site), so the full report — including the injected
// fault tallies — is byte-identical for every -parallel value. -check proves
// it by rebuilding the report at parallelism 1 and 8 and comparing bytes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"spcd"
	"spcd/internal/cli"
	"spcd/internal/runtimeobs"
	"spcd/internal/sweep"
)

// sweeper is one report's grid: run executes all of it at the given
// parallelism and shard count and renders the report and CSV.
type sweeper interface {
	run(parallelism, shards int) (report, csv string)
}

func main() {
	o := &cli.Options{
		Flags: cli.Bench | cli.Suite | cli.Class | cli.Threads | cli.Seed | cli.Policies | cli.Reps |
			cli.Parallel | cli.Shards | cli.Shootdown | cli.RuntimeObs | cli.Profile,
		Bench: "CG", Suite: "nas", ClassName: "small", Threads: 8, Seed: 42, Policies: "os,spcd", Reps: 2,
		Shootdown: "none",
	}
	o.Register(flag.CommandLine)
	var (
		axis        = o.Fractions("intensities", "0,0.25,0.5,0.75,1", "comma-separated fault intensities in [0,1]")
		csvPath     = flag.String("csv", "", "also write the curves as CSV to this path")
		check       = flag.Bool("check", false, "build the report twice (parallelism 1 and 8) and fail unless byte-identical")
		checkShards = flag.Bool("checkshards", false, "also build the epoch-sharded report at shards 1 and 4 and fail unless byte-identical")

		churn   = flag.Bool("churn", false, "SLO-under-churn mode: run the multi-tenant serving scenario per intensity instead of a single kernel (policies static,spcd unless -policies is set)")
		tenants = o.Count("tenants", 3, "churn mode: tenants in the serving schedule")
		budget  = o.Count("budget", 4, "churn mode: churn governor's max thread moves per interval")
	)
	o.Parse()

	pols := cli.Split(o.Policies)
	var g sweeper
	if *churn {
		if o.RuntimeDir != "" {
			cli.Fatal(errors.New("-runtimeobs does not apply to -churn: scenario runs record no host spans"))
		}
		polSet := false
		flag.Visit(func(f *flag.Flag) { polSet = polSet || f.Name == "policies" })
		if !polSet {
			// The serving-mode comparison of record: online SPCD against the
			// static initial placement.
			pols = []string{"static", "spcd"}
		}
		g = churnGrid{
			tenants: *tenants, class: o.Class(), machine: o.Machine(), policies: pols, axis: *axis,
			seed: o.Seed, reps: o.Reps, budget: *budget,
		}
	} else {
		g = grid{
			machine: o.Machine(), workload: o.Workload(), policies: pols, axis: *axis,
			seed: o.Seed, reps: o.Reps, runtime: o.Runtime(),
		}
	}
	if len(pols) == 0 || len(*axis) == 0 {
		cli.Fatal(errors.New("need at least one policy and one intensity"))
	}

	var report, csv string
	if *check {
		// Re-derive the full artifacts at two parallelism levels; any
		// scheduling dependence anywhere in the fault or sweep layers shows
		// up as a byte diff here. (With -runtimeobs both legs land in the
		// same collector — the host trace shows both, the report neither.)
		report, csv = g.run(1, o.Shards)
		report8, csv8 := g.run(8, o.Shards)
		if report != report8 || csv != csv8 {
			cli.Fatal(errors.New("determinism check failed: parallelism 1 and 8 disagree"))
		}
		fmt.Fprintln(os.Stderr, "check ok: report byte-identical at parallelism 1 and 8")
	}
	if *checkShards {
		// The epoch-sharded engine's worker-count independence: at
		// parallelism 1 the shard count is the only variable.
		report1, csv1 := g.run(1, 1)
		report4, csv4 := g.run(1, 4)
		if report1 != report4 || csv1 != csv4 {
			cli.Fatal(errors.New("shard determinism check failed: shards 1 and 4 disagree"))
		}
		fmt.Fprintln(os.Stderr, "check ok: report byte-identical at shards 1 and 4")
	}
	if !*check {
		report, csv = g.run(o.Parallel, o.Shards)
	}
	fmt.Print(report)
	if *csvPath != "" {
		cli.Check(cli.WriteFile(*csvPath, func(w io.Writer) error {
			_, err := io.WriteString(w, csv)
			return err
		}))
	}
	o.Finish()
}

// armed names the machine's shootdown cost model, or "" for mode none,
// whose output keeps its historical bytes.
func armed(m *spcd.Machine) string {
	if s := m.Shootdown.String(); s != "none" {
		return s
	}
	return ""
}

// row is one (intensity, policy) point of the degradation curve, averaged
// over the reps.
type row struct {
	intensity float64
	digest    string
	policy    string
	execSec   float64
	c2cCross  float64
	c2cTotal  float64
	migr      float64
	faults    uint64 // injected faults across all sites and reps
}

type grid struct {
	machine  *spcd.Machine
	workload spcd.Workload
	policies []string
	axis     []float64
	seed     int64
	reps     int

	// runtime, when set, collects host wall-clock spans per intensity sweep.
	// One-way: the report and CSV are identical with it on or off.
	runtime *runtimeobs.Collector
}

// run executes the whole intensity × policy × rep grid at the given
// parallelism and shard count (0: sequential engine; >=1: epoch-sharded
// engine) and renders the report and CSV. Everything it returns is a pure
// function of the grid definition — see the package comment.
func (g grid) run(parallelism, shards int) (report, csv string) {
	rows := make([]row, 0, len(g.axis)*len(g.policies))
	for _, intensity := range g.axis {
		plan := spcd.DefaultFaultPlan(g.seed, intensity)
		configs := make([]sweep.Config, 0, len(g.policies)*g.reps)
		for _, pol := range g.policies {
			for r := 0; r < g.reps; r++ {
				configs = append(configs, sweep.Config{Workload: g.workload, Policy: pol, Rep: r})
			}
		}
		runner := sweep.Runner{
			Machine:     g.machine,
			Parallelism: parallelism,
			Shards:      shards,
			Runtime:     g.runtime,
			Seeder:      func(c sweep.Config) int64 { return g.seed + int64(c.Rep) + 1 },
			FaultPlan:   &plan,
		}
		rs, err := runner.Run(configs)
		cli.Check(err)
		cli.Check(sweep.FirstErr(rs))
		i := 0
		for _, pol := range g.policies {
			r := row{intensity: intensity, digest: plan.Digest(), policy: pol}
			for rep := 0; rep < g.reps; rep++ {
				m := rs[i].Metrics
				r.execSec += m.ExecSeconds
				r.c2cCross += float64(m.Cache.C2CCrossSocket)
				r.c2cTotal += float64(m.Cache.C2CTotal())
				r.migr += float64(m.Migrations)
				for _, sc := range rs[i].Faults {
					r.faults += sc.Count
				}
				i++
			}
			n := float64(g.reps)
			r.execSec /= n
			r.c2cCross /= n
			r.c2cTotal /= n
			r.migr /= n
			rows = append(rows, r)
		}
	}
	shootdown := armed(g.machine)
	return render(rows, g.policies, shootdown), renderCSV(rows, shootdown)
}

// render produces the degradation-curve report: per policy, each intensity's
// metrics normalized to that policy's intensity-0 (fault-free) row.
func render(rows []row, pols []string, shootdown string) string {
	base := make(map[string]row, len(pols))
	for _, r := range rows {
		if r.intensity == 0 {
			if _, ok := base[r.policy]; !ok {
				base[r.policy] = r
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos degradation curves (mean over reps; norm = vs same policy at intensity 0)\n")
	if shootdown != "" {
		fmt.Fprintf(&b, "shootdown cost model: %s\n", shootdown)
	}
	fmt.Fprintf(&b, "%-9s %-8s %-16s %12s %14s %11s %8s\n",
		"intensity", "policy", "plan", "time_s", "c2c_cross", "migrations", "faults")
	for _, r := range rows {
		norm := ""
		if b0, ok := base[r.policy]; ok && r.intensity != 0 {
			norm = fmt.Sprintf("  [time x%.3f, c2c_cross x%.3f]",
				ratio(r.execSec, b0.execSec), ratio(r.c2cCross, b0.c2cCross))
		}
		fmt.Fprintf(&b, "%-9.2f %-8s %-16s %12.4f %14.1f %11.1f %8d%s\n",
			r.intensity, r.policy, r.digest, r.execSec, r.c2cCross, r.migr, r.faults, norm)
	}
	// The paper's headline comparison, per intensity: does communication-
	// aware mapping still beat the OS placement under faults?
	if slices.Contains(pols, "os") && slices.Contains(pols, "spcd") {
		fmt.Fprintf(&b, "\nspcd vs os cross-socket c2c:\n")
		byKey := make(map[string]row, len(rows))
		for _, r := range rows {
			byKey[fmt.Sprintf("%.4f/%s", r.intensity, r.policy)] = r
		}
		for _, r := range rows {
			if r.policy != "spcd" {
				continue
			}
			osRow, ok := byKey[fmt.Sprintf("%.4f/os", r.intensity)]
			if !ok {
				continue
			}
			verdict := "<= os"
			if r.c2cCross > osRow.c2cCross {
				verdict = "> os (degraded past baseline)"
			}
			fmt.Fprintf(&b, "  intensity %.2f: spcd %.1f vs os %.1f  (x%.3f, %s)\n",
				r.intensity, r.c2cCross, osRow.c2cCross, ratio(r.c2cCross, osRow.c2cCross), verdict)
		}
	}
	return b.String()
}

// renderCSV renders the same rows as machine-readable CSV. When a shootdown
// cost model is armed its name rides along as a leading comment line so the
// artifact self-identifies; mode none keeps the historical byte layout.
func renderCSV(rows []row, shootdown string) string {
	var b strings.Builder
	if shootdown != "" {
		fmt.Fprintf(&b, "# shootdown: %s\n", shootdown)
	}
	b.WriteString("intensity,policy,plan_digest,exec_seconds,c2c_cross_socket,c2c_total,migrations,injected_faults\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%g,%s,%s,%g,%g,%g,%g,%d\n",
			r.intensity, r.policy, r.digest, r.execSec, r.c2cCross, r.c2cTotal, r.migr, r.faults)
	}
	return b.String()
}

func ratio(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}
