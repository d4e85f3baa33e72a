package spcd_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spcd"
	"spcd/internal/scenario"
	"spcd/internal/sweep"
)

// The churn-robustness gate: the long-running multi-tenant scenario — the
// canonical schedule exercises arrival, phase switch and departure in one
// run — must produce byte-identical per-tenant metrics at every RunJobs
// parallelism and every engine shard count, with and without the canonical
// fault plan. determinism_test.go proves this for single runs; churn is the
// adversarial case because membership changes, admission retries and the
// governor's backoff all thread state across interval boundaries.

// churnSpec is the canonical acceptance schedule: >= 3 tenants, >= 2 phase
// switches, >= 1 departure.
func churnSpec(seed int64) spcd.Scenario {
	s := spcd.DefaultScenario(3, spcd.ClassTest, seed)
	s.Policy = "spcd"
	return s
}

func TestChurnDeterminismAcrossParallelism(t *testing.T) {
	plan := spcd.CanonicalFaultPlan(42)
	var specs []spcd.Scenario
	for seed := int64(40); seed < 44; seed++ {
		s := churnSpec(seed)
		specs = append(specs, s)
		f := churnSpec(seed)
		f.Options.Faults = plan // the fault-injected leg must hold the same contract
		specs = append(specs, f)
	}
	seq, errs1 := scenario.RunJobs(specs, 1)
	par, errs8 := scenario.RunJobs(specs, 8)
	for i := range specs {
		if errs1[i] != nil || errs8[i] != nil {
			t.Fatalf("job %d: %v / %v", i, errs1[i], errs8[i])
		}
		if seq[i].Render() != par[i].Render() {
			t.Errorf("job %d: reports differ between parallelism 1 and 8\n--- p1 ---\n%s--- p8 ---\n%s",
				i, seq[i].Render(), par[i].Render())
		}
	}
}

func TestChurnDeterminismAcrossShards(t *testing.T) {
	plan := spcd.CanonicalFaultPlan(42)
	for _, faults := range []bool{false, true} {
		s1 := churnSpec(42)
		s1.Options.Shards = 1
		s4 := churnSpec(42)
		s4.Options.Shards = 4
		if faults {
			s1.Options.Faults, s4.Options.Faults = plan, plan
		}
		r1, err := spcd.Serve(s1)
		if err != nil {
			t.Fatal(err)
		}
		r4, err := spcd.Serve(s4)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Render() != r4.Render() {
			t.Errorf("faults=%t: reports differ between shards 1 and 4\n--- s1 ---\n%s--- s4 ---\n%s",
				faults, r1.Render(), r4.Render())
		}
	}
}

// TestChurnScenarioCompletesUnderFaults: the canonical schedule drains under
// the canonical fault plan — every tenant reaches a terminal state and the
// governor's per-interval budget holds over the emitted adaptation events.
func TestChurnScenarioCompletesUnderFaults(t *testing.T) {
	plan := spcd.CanonicalFaultPlan(42)
	s := churnSpec(42)
	s.Options = spcd.RunOptions{Faults: plan, Probe: spcd.NewProbe(spcd.ObsOptions{})}
	rep, err := spcd.Serve(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated {
		t.Error("faulted scenario truncated at MaxIntervals")
	}
	if rep.FaultDigest == "" {
		t.Error("active plan recorded no fault digest")
	}
	for _, tm := range rep.Tenants {
		switch tm.Status {
		case "completed", "departed", "unserved":
		default:
			t.Errorf("tenant %s ended in non-terminal state %s", tm.ID, tm.Status)
		}
	}
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
	for iv, moved := range perInterval {
		if moved > uint64(s.MigrationBudget) {
			t.Errorf("interval %d applied %d moves, budget %d", iv, moved, s.MigrationBudget)
		}
	}
}

// TestGoldenScenario pins a small two-tenant scenario's full report — the
// per-tenant Metrics included — per policy. Regenerate with
// `go test -run TestGoldenScenario -update` ONLY when a serving-semantics
// change is intended, and say so in the commit.
func TestGoldenScenario(t *testing.T) {
	for _, policy := range []string{"static", "os", "spcd", "tlb", "hwc"} {
		t.Run(policy, func(t *testing.T) {
			s := spcd.DefaultScenario(2, spcd.ClassTest, 42)
			s.Policy = policy
			rep, err := spcd.Serve(s)
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Render()
			path := filepath.Join("testdata", fmt.Sprintf("golden_scenario_%s.txt", policy))
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update on a trusted tree): %v", err)
			}
			if got != string(want) {
				t.Errorf("scenario report diverged from golden %s\n--- got ---\n%s--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// TestScenarioOnlineBeatsStatic: the serving-mode headline — on the
// churn-free schedule (everyone resident from time zero), online SPCD must
// beat the static initial placement on cross-socket c2c, averaged over two
// reps. Rep r serves master seed DeriveSeed(42, "scenario/r<r>") under both
// policies, so they serve identical tenant streams.
func TestScenarioOnlineBeatsStatic(t *testing.T) {
	spec := spcd.DefaultScenario(3, spcd.ClassTest, 42)
	for i := range spec.Tenants {
		spec.Tenants[i].ArriveAt = 0
		spec.Tenants[i].DepartAt = 0
		spec.Tenants[i].Phases = spec.Tenants[i].Phases[:1]
	}
	meanCrossSocketC2C := func(policy string) float64 {
		sum := 0.0
		for r := 0; r < 2; r++ {
			s := spec
			s.Policy = policy
			s.MasterSeed = sweep.DeriveSeed(42, fmt.Sprintf("scenario/r%d", r))
			rep, err := spcd.Serve(s)
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(rep.C2CCrossSocket)
		}
		return sum / 2
	}
	if st, on := meanCrossSocketC2C("static"), meanCrossSocketC2C("spcd"); on >= st {
		t.Errorf("online spcd cross-socket c2c %.1f did not beat static %.1f", on, st)
	}
}
