package engine

import (
	"testing"

	"spcd/internal/obs"
	"spcd/internal/topology"
	"spcd/internal/workloads"
)

// BenchmarkRun measures end-to-end engine throughput — translation,
// coherence, scheduling, and policy plumbing together; the benchmark module
// (benchmark/) measures the same across kernels. Run with -benchmem: the
// steady-state access loop should show near-zero allocations per simulated
// access.
func BenchmarkRun(b *testing.B) {
	w, err := workloads.NewNPB("SP", 8, workloads.ClassTest)
	if err != nil {
		b.Fatal(err)
	}
	var accesses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Run(Config{
			Machine:  topology.DefaultXeon(),
			Workload: w,
			Policy:   &pinned{name: "bench"},
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		accesses = m.Cache.Accesses
	}
	b.ReportMetric(float64(accesses), "sim-accesses/op")
}

// BenchmarkRunSharded is BenchmarkRun on the epoch-sharded engine with two
// workers: worker simulation, the barrier merge of the per-thread cache
// event streams, and deferred fault resolution all sit on the measured path.
func BenchmarkRunSharded(b *testing.B) {
	w, err := workloads.NewNPB("CG", 32, workloads.ClassTest)
	if err != nil {
		b.Fatal(err)
	}
	var accesses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Run(Config{
			Machine:  topology.DefaultXeon(),
			Workload: w,
			Policy:   &pinned{name: "bench"},
			Seed:     1,
			Shards:   2,
		})
		if err != nil {
			b.Fatal(err)
		}
		accesses = m.Cache.Accesses
	}
	b.ReportMetric(float64(accesses), "sim-accesses/op")
}

// BenchmarkRunObserved is the obs-on counterpart of BenchmarkRun: the same
// run with a fresh probe attached each iteration. Compare the two to see the
// observability tax; EXPERIMENTS.md records the measured obs-on cost.
func BenchmarkRunObserved(b *testing.B) {
	w, err := workloads.NewNPB("SP", 8, workloads.ClassTest)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := obs.New(obs.Options{})
		m, err := Run(Config{
			Machine:  topology.DefaultXeon(),
			Workload: w,
			Policy:   &pinned{name: "bench"},
			Seed:     1,
			Probe:    pr,
		})
		if err != nil {
			b.Fatal(err)
		}
		if m.Instructions == 0 || len(pr.Samples()) == 0 {
			b.Fatal("observed run recorded nothing")
		}
	}
}

// BenchmarkRunMigrating exercises the tick path: a policy that migrates
// once keeps the per-tick bookkeeping (affinity validation, heap repair)
// on the measured path.
func BenchmarkRunMigrating(b *testing.B) {
	w, err := workloads.NewNPB("SP", 8, workloads.ClassTest)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pinned{name: "bench-mig",
			aff:     []int{0, 1, 2, 3, 4, 5, 6, 7},
			trigger: 2, newAff: []int{8, 9, 10, 11, 4, 5, 6, 7}}
		if _, err := Run(Config{Machine: topology.DefaultXeon(), Workload: w,
			Policy: p, Seed: 1, TickIntervalCycles: 20_000}); err != nil {
			b.Fatal(err)
		}
	}
}
