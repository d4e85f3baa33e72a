package scenario

import (
	"strings"
	"testing"

	"spcd/internal/faultinject"
	"spcd/internal/obs"
	"spcd/internal/workloads"
)

// TestMoveComponentsCycle: a three-thread rotation is one cycle component —
// it must be applied whole or not at all.
func TestMoveComponentsCycle(t *testing.T) {
	cur := []int{0, 1, 2}
	target := []int{1, 2, 0}
	comps := moveComponents(cur, target)
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1 cycle", len(comps))
	}
	if len(comps[0]) != 3 {
		t.Fatalf("cycle size = %d, want 3", len(comps[0]))
	}
}

// TestMoveComponentsPath: a chain ending at a free context is one path
// component; an independent swap is a separate cycle.
func TestMoveComponentsPath(t *testing.T) {
	// Thread 0 -> ctx 1 (occupied by 1), thread 1 -> ctx 5 (free): a path.
	// Threads 2 and 3 swap: a 2-cycle.
	cur := []int{0, 1, 2, 3}
	target := []int{1, 5, 3, 2}
	comps := moveComponents(cur, target)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0]) != 2 || minThread(comps[0]) != 0 {
		t.Errorf("first component %v, want the path {0, 1}", comps[0])
	}
	if len(comps[1]) != 2 || minThread(comps[1]) != 2 {
		t.Errorf("second component %v, want the swap {2, 3}", comps[1])
	}
}

// TestGovernorBudgetTruncation: with budget 2, a 3-cycle cannot be applied
// (it would split), but an independent 2-swap can; the cycle defers.
func TestGovernorBudgetTruncation(t *testing.T) {
	g := newGovernor(2, 100)
	cur := []int{0, 1, 2, 3, 4}
	target := []int{1, 2, 0, 4, 3} // 3-cycle {0,1,2} + 2-cycle {3,4}
	aff, moved, deferred := g.propose(1000, cur, target)
	if !deferred {
		t.Error("3-cycle over budget did not defer")
	}
	if moved != 2 {
		t.Errorf("moved = %d, want 2 (the swap fits after the cycle is skipped)", moved)
	}
	if aff == nil || aff[3] != 4 || aff[4] != 3 || aff[0] != 0 {
		t.Errorf("aff = %v, want only the swap applied", aff)
	}
	// Backoff: the next proposal inside the window is suppressed.
	if !g.backingOff(1050) {
		t.Error("governor not backing off after a deferral")
	}
	if a, _, _ := g.propose(1050, cur, target); a != nil {
		t.Error("proposal applied during backoff")
	}
	if g.backingOff(1100 + 1) {
		t.Error("still backing off after the window passed")
	}
}

// TestGovernorAppliedResultStaysInjective: applying a subset of components
// must never stack two threads on one context.
func TestGovernorAppliedResultStaysInjective(t *testing.T) {
	g := newGovernor(3, 100)
	cur := []int{0, 1, 2, 3, 4, 5}
	target := []int{1, 2, 3, 0, 5, 4} // 4-cycle {0..3} + swap {4,5}
	aff, moved, _ := g.propose(0, cur, target)
	if moved != 2 {
		t.Fatalf("moved = %d, want 2", moved)
	}
	seen := map[int]bool{}
	for _, ctx := range aff {
		if seen[ctx] {
			t.Fatalf("context %d assigned twice in %v", ctx, aff)
		}
		seen[ctx] = true
	}
}

// TestGovernorFallback: governorFailureBudget consecutive deferrals latch
// the permanent fallback.
func TestGovernorFallback(t *testing.T) {
	g := newGovernor(1, 10)
	cur := []int{0, 1, 2}
	target := []int{1, 2, 0} // 3-cycle, never fits budget 1
	now := uint64(0)
	for i := 0; i < governorFailureBudget; i++ {
		for g.backingOff(now) {
			now += 10
		}
		if _, _, deferred := g.propose(now, cur, target); !deferred {
			t.Fatalf("round %d: expected a deferral", i)
		}
	}
	if !g.fellBack {
		t.Error("governor did not fall back after consecutive deferrals")
	}
	if a, _, _ := g.propose(now+1<<20, cur, target); a != nil {
		t.Error("fallen-back governor still applies remaps")
	}
}

// TestDefaultSpecScheduleShape: the canonical 3-tenant schedule exercises
// arrival, phase switch and departure, as the acceptance criteria require.
func TestDefaultSpecScheduleShape(t *testing.T) {
	s := DefaultSpec(3, workloads.ClassTest, 42)
	if len(s.Tenants) != 3 {
		t.Fatalf("tenants = %d", len(s.Tenants))
	}
	switches, departures := 0, 0
	for _, ten := range s.Tenants {
		if len(ten.Phases) > 1 {
			switches += len(ten.Phases) - 1
		}
		if ten.DepartAt != 0 {
			departures++
		}
	}
	if switches < 2 {
		t.Errorf("phase switches = %d, want >= 2", switches)
	}
	if departures < 1 {
		t.Errorf("departures = %d, want >= 1", departures)
	}
	if _, err := s.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
}

// TestScenarioRunsToCompletion: the canonical churn schedule drains under
// the online policy, every tenant reaches a terminal state, and the budget
// audit over the emitted events never exceeds the per-interval cap.
func TestScenarioRunsToCompletion(t *testing.T) {
	s := DefaultSpec(3, workloads.ClassTest, 42)
	s.Policy = "spcd"
	s.Options.Probe = obs.New(obs.Options{})
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated {
		t.Error("scenario truncated at MaxIntervals")
	}
	for _, tm := range rep.Tenants {
		switch tm.Status {
		case "completed", "departed":
		default:
			t.Errorf("tenant %s ended %s", tm.ID, tm.Status)
		}
		if tm.Accesses == 0 {
			t.Errorf("tenant %s delivered no accesses", tm.ID)
		}
	}
	if rep.Tenants[2].Status != "departed" {
		t.Errorf("t02 status = %s, want departed", rep.Tenants[2].Status)
	}
	// Budget audit: per interval, the sum of applied moves never exceeds
	// the governor's budget.
	perInterval := map[uint64]uint64{}
	for _, ev := range s.Options.Probe.Events() {
		if ev.Cat != "scenario" || ev.Name != "remap.applied" {
			continue
		}
		var moved, interval uint64
		for _, a := range ev.Args {
			switch a.Key {
			case "moved":
				moved = a.UintVal()
			case "interval":
				interval = a.UintVal()
			}
		}
		perInterval[interval] += moved
	}
	if len(perInterval) == 0 {
		t.Error("no remap.applied events: the online policy never adapted")
	}
	for iv, moved := range perInterval {
		if moved > uint64(s.MigrationBudget) {
			t.Errorf("interval %d applied %d moves, budget %d", iv, moved, s.MigrationBudget)
		}
	}
}

// TestScenarioDeterministicAcrossRuns: two runs of the same spec render the
// same bytes.
func TestScenarioDeterministicAcrossRuns(t *testing.T) {
	s := DefaultSpec(2, workloads.ClassTest, 7)
	s.Policy = "spcd"
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Error("same-spec renders differ")
	}
}

// TestAdmissionRejectNeverDrops: with the admission site firing at rate 1
// the tenant is rejected every retry with doubling backoff, but is never
// silently dropped — it ends unserved, with its rejections counted.
func TestAdmissionRejectNeverDrops(t *testing.T) {
	s := DefaultSpec(1, workloads.ClassTest, 9)
	s.Policy = "static"
	s.MaxIntervals = 40
	s.Options.Faults = faultinject.Plan{Seed: 9, AdmitFailRate: 1}
	s.Options.Probe = obs.New(obs.Options{})
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	tm := rep.Tenants[0]
	if tm.Status != "unserved" {
		t.Errorf("status = %s, want unserved", tm.Status)
	}
	if tm.AdmitRejects == 0 {
		t.Error("no admission rejections recorded at rate 1")
	}
	rejects := 0
	for _, ev := range s.Options.Probe.Events() {
		if ev.Cat == "scenario" && ev.Name == "tenant.admit.reject" {
			rejects++
		}
	}
	if rejects != tm.AdmitRejects {
		t.Errorf("events %d != recorded rejections %d", rejects, tm.AdmitRejects)
	}
	// Doubling backoff: with ~40 intervals, rate-1 rejection allows at most
	// log2(40)+2 attempts; a linear retry would make ~40.
	if tm.AdmitRejects > 8 {
		t.Errorf("rejections = %d; backoff is not doubling", tm.AdmitRejects)
	}
}

// TestCapacityDeferral: a tenant that does not fit waits without being
// dropped and is admitted once the machine drains.
func TestCapacityDeferral(t *testing.T) {
	big := DefaultSpec(2, workloads.ClassTest, 11)
	big.Policy = "static"
	big.Tenants[0].Threads = 32
	big.Tenants[0].Phases = big.Tenants[0].Phases[:1]
	big.Tenants[1].Threads = 8
	big.Tenants[1].Phases = big.Tenants[1].Phases[:1]
	big.Tenants[1].ArriveAt = big.IntervalCycles
	rep, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenants[1].AdmitDefers == 0 {
		t.Error("second tenant was never capacity-deferred")
	}
	for _, tm := range rep.Tenants {
		if tm.Status != "completed" {
			t.Errorf("tenant %s ended %s, want completed", tm.ID, tm.Status)
		}
	}
}

// TestStaticPolicyNeverMigrates: the static baseline applies admission
// placement only.
func TestStaticPolicyNeverMigrates(t *testing.T) {
	s := DefaultSpec(2, workloads.ClassTest, 5)
	s.Policy = "static"
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 0 || rep.BoundaryMoves != 0 {
		t.Errorf("static policy moved threads: %d migrations, %d boundary moves",
			rep.Migrations, rep.BoundaryMoves)
	}
}

// TestReportCSVShape: one row per tenant plus the header.
func TestReportCSVShape(t *testing.T) {
	s := DefaultSpec(2, workloads.ClassTest, 3)
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 1+len(rep.Tenants) {
		t.Errorf("csv has %d lines, want %d", len(lines), 1+len(rep.Tenants))
	}
}

// TestRunJobsParallelismInvariant: a batch renders identically at
// parallelism 1, 8 and 0 (GOMAXPROCS), and a negative parallelism fails
// every job with an error naming it.
func TestRunJobsParallelismInvariant(t *testing.T) {
	var specs []Spec
	for seed := int64(1); seed <= 4; seed++ {
		s := DefaultSpec(2, workloads.ClassTest, seed)
		s.Policy = "spcd"
		specs = append(specs, s)
	}
	seq, errs1 := RunJobs(specs, 1)
	for _, p := range []int{8, 0} {
		par, errs := RunJobs(specs, p)
		for i := range specs {
			if errs1[i] != nil || errs[i] != nil {
				t.Fatalf("job %d errored: %v / %v", i, errs1[i], errs[i])
			}
			if seq[i].Render() != par[i].Render() {
				t.Errorf("job %d renders differ between parallelism 1 and %d", i, p)
			}
		}
	}
	_, errs := RunJobs(specs, -1)
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "Parallelism") {
			t.Errorf("job %d at parallelism -1: error %v, want one naming Parallelism", i, err)
		}
	}
}
