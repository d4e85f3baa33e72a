package spcd_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"spcd"
)

// TestBadRunSettingsAreErrors: zero keeps each setting's documented
// default, but a negative count, a NaN decay, an unknown suite or a fault
// plan with a field outside its range is an error that names it, from every
// library entry point that takes it. Each case has a deadline, because an
// unchecked NaN stall rate stalls every scheduling slice and the run never
// returns.
func TestBadRunSettingsAreErrors(t *testing.T) {
	mach := spcd.DefaultMachine()
	w, err := spcd.NPB("CG", 8, spcd.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(edit func(*spcd.Scenario)) spcd.Scenario {
		s := spcd.DefaultScenario(2, spcd.ClassTest, 42)
		edit(&s)
		return s
	}
	exp := spcd.Experiment{Machine: mach, Workload: w, Policies: []string{"os"}, Reps: 1}
	sweep := spcd.Sweep{Machine: mach, Kernels: []string{"CG"}, Class: spcd.ClassTest,
		Threads: 8, Policies: []string{"os"}, Reps: 1}
	runSweep := func(s spcd.Sweep) error {
		res, err := s.Run()
		if err != nil {
			return err
		}
		return res.FirstErr() // per-config failures surface here
	}
	serve := func(s spcd.Scenario) error {
		_, err := spcd.Serve(s)
		return err
	}
	type setting struct {
		name string
		run  func() error
		want string
	}
	cases := []setting{
		{"Run Shards", func() error {
			_, err := spcd.Run(mach, w, "os", 1, spcd.RunOptions{Shards: -1})
			return err
		}, "Shards"},
		{"Experiment.Run Reps", func() error {
			e := exp
			e.Reps = -2
			_, err := e.Run()
			return err
		}, "Reps"},
		{"Experiment.Run Parallelism", func() error {
			e := exp
			e.Parallelism = -1
			_, err := e.Run()
			return err
		}, "Parallelism"},
		{"Experiment.Run Shards", func() error {
			e := exp
			e.Shards = -1
			_, err := e.Run()
			return err
		}, "Shards"},
		{"Experiment.Scenario Reps", func() error {
			e := exp
			e.Reps = -5
			_, err := e.Scenario(spec(func(*spcd.Scenario) {}))
			return err
		}, "Reps"},
		{"Experiment.Scenario Parallelism", func() error {
			e := exp
			e.Policies, e.Parallelism = []string{"static"}, -1
			_, err := e.Scenario(spec(func(*spcd.Scenario) {}))
			return err
		}, "parallelism"},
		{"Experiment.Scenario Shards", func() error {
			e := exp
			e.Policies, e.Shards = []string{"static"}, -1
			_, err := e.Scenario(spec(func(*spcd.Scenario) {}))
			return err
		}, "Shards"},
		{"Sweep.Run Threads", func() error {
			s := sweep
			s.Threads = -4
			return runSweep(s)
		}, "Threads"},
		{"Sweep.Run Reps", func() error {
			s := sweep
			s.Reps = -1
			return runSweep(s)
		}, "Reps"},
		{"Sweep.Run Parallelism", func() error {
			s := sweep
			s.Parallelism = -1
			return runSweep(s)
		}, "Parallelism"},
		{"Sweep.Run Shards", func() error {
			s := sweep
			s.Shards = -1
			return runSweep(s)
		}, "Shards"},
		{"Sweep.Run Suite", func() error {
			s := sweep
			s.Suite, s.Kernels = "spec", nil
			return runSweep(s)
		}, `"spec"`},
		{"Serve MaxIntervals", func() error {
			return serve(spec(func(s *spcd.Scenario) { s.MaxIntervals = -3 }))
		}, "max intervals"},
		{"Serve ChurnDecay", func() error {
			return serve(spec(func(s *spcd.Scenario) { s.ChurnDecay = math.NaN() }))
		}, "churn decay"},
		{"Serve IntervalDecay", func() error {
			return serve(spec(func(s *spcd.Scenario) { s.IntervalDecay = math.NaN() }))
		}, "interval decay"},
		{"Serve Shards", func() error {
			return serve(spec(func(s *spcd.Scenario) { s.Shards = -1 }))
		}, "Shards"},
		{"Serve DefaultScenario tenants", func() error {
			return serve(spcd.DefaultScenario(-1, spcd.ClassTest, 42))
		}, "no tenants"},
	}
	nan := math.NaN()
	for _, p := range []struct {
		name, want string
		plan       spcd.FaultPlan
	}{
		{"NaN stall rate", "StallRate", spcd.FaultPlan{Seed: 1, FaultDupRate: 0.01, StallRate: nan}},
		{"NaN drop rate", "FaultDropRate", spcd.FaultPlan{Seed: 1, FaultDropRate: nan}},
		{"negative rate", "MigrateFailRate", spcd.FaultPlan{Seed: 1, MigrateFailRate: -0.1}},
		{"rate above 1", "RemapDelayRate", spcd.FaultPlan{Seed: 1, RemapDelayRate: 1.5}},
		{"NaN capacity factor", "NodeCapacityFactor", spcd.FaultPlan{Seed: 1, FaultDupRate: 0.01, NodeCapacityFactor: nan}},
		{"DefaultFaultPlan(1, NaN)", "Intensity", spcd.DefaultFaultPlan(1, nan)},
	} {
		plan := p.plan
		cases = append(cases,
			setting{"Run " + p.name, func() error {
				_, err := spcd.Run(mach, w, "spcd", 1, spcd.RunOptions{Faults: plan})
				return err
			}, p.want},
			setting{"Experiment.Run " + p.name, func() error {
				e := exp
				e.Faults = &plan
				_, err := e.Run()
				return err
			}, p.want},
			setting{"Sweep.Run " + p.name, func() error {
				s := sweep
				s.Faults = &plan
				return runSweep(s)
			}, p.want},
			setting{"Serve " + p.name, func() error {
				return serve(spec(func(s *spcd.Scenario) { s.Faults = &plan }))
			}, p.want})
	}
	for _, c := range cases {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("panic: %v", r)
				}
			}()
			done <- c.run()
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s: no result within 10 s, want an error naming %q", c.name, c.want)
		}
	}
	// The stats helpers refuse a zero or NaN baseline rather than return a
	// 0, ±Inf or NaN cell.
	for _, base := range []float64{0, nan} {
		r := spcd.Results{ByPolicy: map[string][]spcd.Metrics{
			"os": {{ExecSeconds: base}}, "spcd": {{ExecSeconds: 1}},
		}}
		if v, err := r.NormalizedMean("spcd", spcd.MetricTime, "os"); err == nil {
			t.Errorf("NormalizedMean against a %v baseline = %v, want an error", base, v)
		}
		if v, err := r.PercentChange("spcd", spcd.MetricTime, "os"); err == nil {
			t.Errorf("PercentChange against a %v baseline = %v, want an error", base, v)
		}
	}
}
