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
// default, but a negative count, an unknown suite, a fault plan with a field
// outside its range, a workload class with a negative size or a machine
// shape the mapping cannot lay out is an error that names it, from every
// library entry point that takes it, before any run starts. Each case has a
// deadline, because an unchecked NaN stall rate stalls every scheduling
// slice and the run never returns.
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
	one := spcd.Sweep{Machine: mach, Workload: w, Policies: []string{"os"}, Reps: 1}
	sweep := spcd.Sweep{Machine: mach, Kernels: []string{"CG"}, Class: spcd.ClassTest,
		Threads: 8, Policies: []string{"os"}, Reps: 1}
	runSweep := func(s spcd.Sweep) error {
		_, err := s.Run() // checked before any run, not per config
		return err
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
		{"Sweep{Workload}.Run Reps", func() error {
			s := one
			s.Reps = -2
			return runSweep(s)
		}, "Reps"},
		{"Sweep{Workload}.Run Parallelism", func() error {
			s := one
			s.Parallelism = -1
			return runSweep(s)
		}, "Parallelism"},
		{"Sweep{Workload}.Run with Kernels and Threads", func() error {
			s := one
			s.Kernels, s.Threads = []string{"CG"}, 8
			return runSweep(s)
		}, "Kernels, Threads"},
		{"Sweep{Workload}.Run with Suite and Class", func() error {
			s := one
			s.Suite, s.Class = "nas", spcd.ClassTest
			return runSweep(s)
		}, "Suite, Class"},
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
		{"Sweep.Run Suite", func() error {
			s := sweep
			s.Suite, s.Kernels = "spec", nil
			return runSweep(s)
		}, `"spec"`},
		{"Serve MaxIntervals", func() error {
			return serve(spec(func(s *spcd.Scenario) { s.MaxIntervals = -3 }))
		}, "max intervals"},
		{"Serve DefaultScenario tenants", func() error {
			return serve(spcd.DefaultScenario(-1, spcd.ClassTest, 42))
		}, "no tenants"},
	}
	// Every run setting goes through Run, both Sweep shapes and Serve.
	nan := math.NaN()
	for _, o := range []struct {
		name, want string
		opts       spcd.RunOptions
	}{
		{"Shards", "Shards", spcd.RunOptions{Shards: -1}},
		{"NaN stall rate", "StallRate", spcd.RunOptions{Faults: spcd.FaultPlan{Seed: 1, FaultDupRate: 0.01, StallRate: nan}}},
		{"NaN drop rate", "FaultDropRate", spcd.RunOptions{Faults: spcd.FaultPlan{Seed: 1, FaultDropRate: nan}}},
		{"negative rate", "MigrateFailRate", spcd.RunOptions{Faults: spcd.FaultPlan{Seed: 1, MigrateFailRate: -0.1}}},
		{"rate above 1", "RemapDelayRate", spcd.RunOptions{Faults: spcd.FaultPlan{Seed: 1, RemapDelayRate: 1.5}}},
		{"NaN capacity factor", "NodeCapacityFactor", spcd.RunOptions{Faults: spcd.FaultPlan{Seed: 1, FaultDupRate: 0.01, NodeCapacityFactor: nan}}},
		{"DefaultFaultPlan(1, NaN)", "Intensity", spcd.RunOptions{Faults: spcd.DefaultFaultPlan(1, nan)}},
	} {
		opts := o.opts
		cases = append(cases,
			setting{"Run " + o.name, func() error {
				_, err := spcd.Run(mach, w, "spcd", 1, opts)
				return err
			}, o.want},
			setting{"Sweep{Workload}.Run " + o.name, func() error {
				s := one
				s.Options = opts
				return runSweep(s)
			}, o.want},
			setting{"Sweep.Run " + o.name, func() error {
				s := sweep
				s.Options = opts
				return runSweep(s)
			}, o.want},
			setting{"Serve " + o.name, func() error {
				return serve(spec(func(s *spcd.Scenario) { s.Options = opts }))
			}, o.want})
	}
	// Every class size goes through every workload constructor. Unchecked,
	// a negative page count maps an exabyte region and the run dies out of
	// memory, and a negative compute gap wraps the instruction count or
	// never returns.
	runWorkload := func(w spcd.Workload, err error) error {
		if err != nil {
			return err
		}
		_, err = spcd.Run(mach, w, "spcd", 1)
		return err
	}
	for _, c := range []struct {
		field string
		edit  func(*spcd.Class)
	}{
		{"PrivatePages", func(c *spcd.Class) { c.PrivatePages = -1 }},
		{"BoundaryPages", func(c *spcd.Class) { c.BoundaryPages = -1 }},
		{"GlobalPages", func(c *spcd.Class) { c.GlobalPages = -1 }},
		{"ComputePerMemop", func(c *spcd.Class) { c.ComputePerMemop = -5 }},
	} {
		bad, field := spcd.ClassTest, c.field
		c.edit(&bad)
		cases = append(cases,
			setting{"NPB " + field, func() error { return runWorkload(spcd.NPB("CG", 8, bad)) }, field},
			setting{"Parsec " + field, func() error { return runWorkload(spcd.Parsec("dedup", 8, bad)) }, field},
			setting{"ProducerConsumer " + field, func() error {
				return runWorkload(spcd.ProducerConsumer(8, bad, 2, 100))
			}, field},
			setting{"Serve " + field, func() error { return serve(spcd.DefaultScenario(3, bad, 1)) }, field})
	}
	// A machine the hierarchical mapping cannot lay out is an error from
	// every mapping policy, not a run that silently never remaps.
	w12, err := spcd.NPB("CG", 12, spcd.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		sockets, cores int
		want           string
	}{
		{2, 3, "contexts per socket (6) must be a power of two"},
		{3, 2, "socket count 3 must be a power of two"},
		{2, 4, ""},
	} {
		m, err := spcd.NewMachine(shape.sockets, shape.cores, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []string{"spcd", "tlb", "hwc", "oracle"} {
			name := fmt.Sprintf("Run %s on %dx%dx2", pol, shape.sockets, shape.cores)
			if shape.want == "" {
				if _, err := spcd.Run(m, w12, pol, 1); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				continue
			}
			cases = append(cases, setting{name, func() error {
				_, err := spcd.Run(m, w12, pol, 1)
				return err
			}, shape.want})
		}
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
