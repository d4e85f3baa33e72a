package main

import (
	"fmt"
	"slices"
	"strings"

	"spcd"
	"spcd/internal/cli"
	"spcd/internal/scenario"
	"spcd/internal/sweep"
)

// churnGrid is the SLO-under-churn axis: instead of one kernel under a fault
// plan, each grid point runs the full multi-tenant serving scenario (tenant
// arrivals, phase switches, departures) under the plan, and every row is
// compared against the same policy's churn-free fault-free baseline — the
// identical tenant mix admitted at time zero with no phase switches and no
// departures. The gap between the columns is what churn itself costs each
// policy in tenant p99 slowdown and cross-socket c2c.
type churnGrid struct {
	tenants  int
	class    spcd.Class
	machine  *spcd.Machine // the host every scenario runs on, shootdown model included
	policies []string
	axis     []float64
	seed     int64
	reps     int
	budget   int
}

// churnRow is one (intensity, policy) point, averaged over the reps.
// intensity -1 marks the churn-free fault-free baseline rows.
type churnRow struct {
	intensity float64
	digest    string
	policy    string
	p99       float64 // mean over reps of the per-run mean tenant p99 slowdown
	c2cCross  float64
	c2cTotal  float64
	moves     float64 // boundary moves + engine-migrated threads
	rejects   float64 // injected admission rejections
	deferrals float64 // governor budget deferrals
}

// run executes baseline + axis scenarios for every policy × rep in one
// RunJobs batch at the given parallelism, with shards intra-interval engine
// workers, and renders the report and CSV. Everything returned is a pure
// function of the grid definition.
func (g churnGrid) run(parallelism, shards int) (report, csv string) {
	type point struct {
		intensity float64 // -1: churn-free fault-free baseline
		policy    string
	}
	var points []point
	for _, pol := range g.policies {
		points = append(points, point{-1, pol})
	}
	for _, intensity := range g.axis {
		for _, pol := range g.policies {
			points = append(points, point{intensity, pol})
		}
	}

	var specs []spcd.Scenario
	for _, pt := range points {
		for r := 0; r < g.reps; r++ {
			// The seed key excludes policy and intensity so every grid point
			// serves identical tenant streams (the sweep methodology).
			seed := sweep.DeriveSeed(g.seed, fmt.Sprintf("churn/r%d", r))
			var s spcd.Scenario
			if pt.intensity < 0 {
				s = churnFreeSpec(g.tenants, g.class, seed)
			} else {
				s = spcd.DefaultScenario(g.tenants, g.class, seed)
				plan := spcd.DefaultFaultPlan(g.seed, pt.intensity)
				s.Faults = &plan
			}
			s.Machine = g.machine
			s.Policy = pt.policy
			s.MigrationBudget = g.budget
			s.Shards = shards
			specs = append(specs, s)
		}
	}
	reports, errs := scenario.RunJobs(specs, parallelism)
	for i, err := range errs {
		if err != nil {
			cli.Fatal(fmt.Errorf("churn scenario %s: %w", specs[i].Policy, err))
		}
	}

	rows := make([]churnRow, len(points))
	for i, pt := range points {
		row := churnRow{intensity: pt.intensity, policy: pt.policy}
		for r := 0; r < g.reps; r++ {
			rep := reports[i*g.reps+r]
			row.digest = rep.FaultDigest
			row.p99 += rep.MeanP99()
			row.c2cCross += float64(rep.C2CCrossSocket)
			row.c2cTotal += float64(rep.C2CTotal())
			row.moves += float64(rep.BoundaryMoves + rep.MigratedThreads)
			row.rejects += float64(rep.AdmitRejects)
			row.deferrals += float64(rep.GovernorDeferrals)
		}
		n := float64(g.reps)
		row.p99 /= n
		row.c2cCross /= n
		row.c2cTotal /= n
		row.moves /= n
		row.rejects /= n
		row.deferrals /= n
		rows[i] = row
	}
	shootdown := armed(g.machine)
	return renderChurn(rows, g.policies, shootdown), renderChurnCSV(rows, shootdown)
}

// churnFreeSpec is the baseline schedule: the same tenant mix as
// DefaultScenario but fully static — everyone arrives at time zero, keeps
// its first kernel for life, and runs to completion.
func churnFreeSpec(tenants int, class spcd.Class, seed int64) spcd.Scenario {
	s := spcd.DefaultScenario(tenants, class, seed)
	for i := range s.Tenants {
		s.Tenants[i].ArriveAt = 0
		s.Tenants[i].DepartAt = 0
		s.Tenants[i].Phases = s.Tenants[i].Phases[:1]
	}
	return s
}

// renderChurn produces the SLO-under-churn report: baseline rows first, then
// the fault axis, each axis row normalized to the same policy's baseline.
func renderChurn(rows []churnRow, pols []string, shootdown string) string {
	base := make(map[string]churnRow, len(pols))
	for _, r := range rows {
		if r.intensity < 0 {
			base[r.policy] = r
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SLO under churn (mean over reps; norm = vs same policy, churn-free fault-free)\n")
	if shootdown != "" {
		fmt.Fprintf(&b, "shootdown cost model: %s\n", shootdown)
	}
	fmt.Fprintf(&b, "%-10s %-8s %-16s %13s %14s %8s %8s %10s\n",
		"intensity", "policy", "plan", "p99_slowdown", "c2c_cross", "moves", "rejects", "deferrals")
	for _, r := range rows {
		label := fmt.Sprintf("%.2f", r.intensity)
		digest := r.digest
		if digest == "" {
			digest = "-"
		}
		if r.intensity < 0 {
			label = "churnfree"
		}
		norm := ""
		if b0, ok := base[r.policy]; ok && r.intensity >= 0 {
			norm = fmt.Sprintf("  [p99 x%.3f, c2c_cross x%.3f]",
				ratio(r.p99, b0.p99), ratio(r.c2cCross, b0.c2cCross))
		}
		fmt.Fprintf(&b, "%-10s %-8s %-16s %13.4f %14.1f %8.1f %8.1f %10.1f%s\n",
			label, r.policy, digest, r.p99, r.c2cCross, r.moves, r.rejects, r.deferrals, norm)
	}
	// The serving-mode headline: does online mapping beat the static initial
	// placement on cross-socket traffic before any churn or faults even start?
	if slices.Contains(pols, "static") && slices.Contains(pols, "spcd") {
		s, st := base["spcd"], base["static"]
		verdict := "<= static"
		if s.c2cCross > st.c2cCross {
			verdict = "> static (online mapping lost to initial placement)"
		}
		fmt.Fprintf(&b, "\nspcd vs static cross-socket c2c, churn-free column: spcd %.1f vs static %.1f  (x%.3f, %s)\n",
			s.c2cCross, st.c2cCross, ratio(s.c2cCross, st.c2cCross), verdict)
	}
	return b.String()
}

// renderChurnCSV renders the same rows machine-readably; baseline rows carry
// intensity -1.
func renderChurnCSV(rows []churnRow, shootdown string) string {
	var b strings.Builder
	if shootdown != "" {
		fmt.Fprintf(&b, "# shootdown: %s\n", shootdown)
	}
	b.WriteString("intensity,policy,plan_digest,mean_p99_slowdown,c2c_cross_socket,c2c_total,moves,admit_rejects,governor_deferrals\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%g,%s,%s,%g,%g,%g,%g,%g,%g\n",
			r.intensity, r.policy, r.digest, r.p99, r.c2cCross, r.c2cTotal, r.moves, r.rejects, r.deferrals)
	}
	return b.String()
}
