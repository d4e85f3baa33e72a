package spcd_test

import (
	"math"
	"strings"
	"testing"

	"spcd"
)

// TestBadRunSettingsAreErrors: zero keeps each setting's documented
// default, but a negative count or a NaN decay is an error that names the
// field, from every library entry point that takes it.
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
	cases := []struct {
		name string
		run  func() error
		want string
	}{
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
	}
	for _, c := range cases {
		err := c.run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}
