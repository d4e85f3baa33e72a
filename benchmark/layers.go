package main

import (
	"fmt"
	"reflect"

	"spcd/internal/engine"
	"spcd/internal/runtimeobs"
)

// layerSums adds up what traced runs measured. Times are host nanoseconds
// with the cost of the clock reads taken out.
type layerSums struct {
	runs     int64
	accesses float64 // simulated accesses (live cache accesses)

	tracedNanos float64 // the traced engine.Run calls
	setupNanos  float64 // engine.Run call to the first call into the workload

	nextCalls int64 // workloads: Next and NextInit
	nextNanos float64

	ticks     int64 // policy: Tick, sampler clears and evaluations included
	tickNanos float64

	faults    int64 // faults delivered to the handler chain
	detFaults int64 // of which delivered to a detector (spcd runs)
	detNanos  float64

	evals     int64 // matrices SPCD evaluated
	evalCalls int64 // Mapper.Evaluate replays of them
	evalNanos float64

	replayed   int64 // runs whose access stream was replayed
	vm, cache  pathTimes
	clears     int64
	clearNanos float64

	intervals int64 // serving intervals

	shardWall, shardSim, shardBarrier, shardMerge, shardImbalance float64
}

func (l *layerSums) add(o *layerSums) {
	l.runs += o.runs
	l.accesses += o.accesses
	l.tracedNanos += o.tracedNanos
	l.setupNanos += o.setupNanos
	l.nextCalls += o.nextCalls
	l.nextNanos += o.nextNanos
	l.ticks += o.ticks
	l.tickNanos += o.tickNanos
	l.faults += o.faults
	l.detFaults += o.detFaults
	l.detNanos += o.detNanos
	l.evals += o.evals
	l.evalCalls += o.evalCalls
	l.evalNanos += o.evalNanos
	l.replayed += o.replayed
	l.vm.add(o.vm)
	l.cache.add(o.cache)
	l.clears += o.clears
	l.clearNanos += o.clearNanos
	l.intervals += o.intervals
	l.shardWall += o.shardWall
	l.shardSim += o.shardSim
	l.shardBarrier += o.shardBarrier
	l.shardMerge += o.shardMerge
	l.shardImbalance += o.shardImbalance
}

func (p *pathTimes) add(o pathTimes) {
	p.ops += o.ops
	p.slow += o.slow
	p.nanos += o.nanos
	p.sampled += o.sampled
	p.sampledNanos += o.sampledNanos
}

// layers turns one traced engine run into layer sums: the decorators'
// timings, the replay of the captured stream (checked against the live
// counters), the evaluated matrices' replay, and the sharded engine's
// runtime summary.
func (j *engineJob) layers(tr *runTrace, m engine.Metrics, start, end int64, rt *runtimeobs.Collector, readNs float64) (*layerSums, error) {
	l := &layerSums{runs: 1, accesses: float64(m.Cache.Accesses), tracedNanos: float64(end-start) - readNs,
		ticks: tr.ticks, faults: tr.faults, evals: int64(len(tr.matrices))}
	if first := tr.firstCall(); first != 0 {
		l.setupNanos = float64(first - start)
	}
	for _, th := range append(tr.threads, tr.initT) {
		l.nextCalls += th.calls
		l.nextNanos += float64(th.nanos) - readNs*float64(th.calls)
	}
	l.tickNanos = float64(tr.tickNanos) - readNs*float64(tr.ticks)
	if j.policy == "spcd" {
		l.detFaults = tr.faults
		l.detNanos = float64(tr.faultNanos) - readNs*float64(tr.faults)
	}
	var err error
	l.evalCalls, l.evalNanos, err = replayEvaluate(j.mach, j.w.NumThreads(), tr.matrices, readNs)
	if err != nil {
		return nil, fmt.Errorf("%s: evaluate replay: %w", j.name, err)
	}
	if tr.capture {
		rp := replay(j.mach, &tr.stream, readNs)
		if err := matchLive(m, rp); err != nil {
			return nil, fmt.Errorf("%s: %w", j.name, err)
		}
		l.replayed = 1
		l.vm, l.cache = rp.vm, rp.cache
		l.clears, l.clearNanos = rp.clears, rp.clearNanos
	}
	if rt != nil {
		for _, p := range runtimeobs.Summarize(rt).Procs {
			if e := p.Engine; e != nil {
				l.shardWall += p.WallSeconds
				l.shardSim += e.SimulateSeconds
				l.shardBarrier += e.BarrierWaitSeconds
				l.shardMerge += e.MergeSeconds
				l.shardImbalance += e.LoadImbalanceRatio * e.SimulateSeconds
			}
		}
	}
	return l, nil
}

// matchLive checks that the replay reproduced the live run's MMU counters
// that replay drives, and every cache counter.
func matchLive(m engine.Metrics, rp replayTimes) error {
	live, got := m.VM, rp.vmStats
	if live.Accesses != got.Accesses || live.TLBHits != got.TLBHits || live.TLBMisses != got.TLBMisses ||
		live.FirstTouchFaults != got.FirstTouchFaults || live.InducedFaults != got.InducedFaults {
		return fmt.Errorf("replay vm counters %+v differ from live %+v", got, live)
	}
	if !reflect.DeepEqual(m.Cache, rp.cacheStats) {
		return fmt.Errorf("replay cache counters %+v differ from live %+v", rp.cacheStats, m.Cache)
	}
	return nil
}

// metric is one printed number.
type metric struct {
	Name string  `json:"name"`
	Unit string  `json:"unit"`
	Val  float64 `json:"value"`
}

// perLayer lists every per-layer metric, in print order. Each entry
// computes its value from a workload's pooled sums, reporting ok=false
// where the workload does not run or the benchmark cannot reach the layer.
var perLayer = []struct {
	name, unit string
	value      func(l *layerSums, x layerExtras) (float64, bool)
}{
	{"engine.traced_ns_per_access", "ns/access", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratio(l.tracedNanos, l.accesses)
	}},
	{"workloads.ns_per_access", "ns/access", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratioIf(l.nextCalls > 0, l.nextNanos, l.accesses)
	}},
	{"vm.ns_per_access", "ns/access", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratioIf(l.replayed > 0, l.vm.nanos, l.accesses)
	}},
	{"vm.fast_frac", "ratio", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratio(float64(l.vm.ops-l.vm.slow), float64(l.vm.ops))
	}},
	{"vm.slow_ns_per_op", "ns/op", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratio(l.vm.sampledNanos, float64(l.vm.sampled))
	}},
	{"vm.clear_ns_per_op", "ns/op", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratio(l.clearNanos, float64(l.clears))
	}},
	{"cache.ns_per_access", "ns/access", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratioIf(l.replayed > 0, l.cache.nanos, l.accesses)
	}},
	{"cache.fast_frac", "ratio", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratio(float64(l.cache.ops-l.cache.slow), float64(l.cache.ops))
	}},
	{"cache.slow_ns_per_op", "ns/op", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratio(l.cache.sampledNanos, float64(l.cache.sampled))
	}},
	{"core.faults_per_kaccess", "faults/kaccess", func(l *layerSums, _ layerExtras) (float64, bool) {
		v, ok := ratioIf(l.nextCalls > 0, float64(l.faults), l.accesses)
		return 1000 * v, ok
	}},
	{"core.detector_ns_per_fault", "ns/fault", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratio(l.detNanos, float64(l.detFaults))
	}},
	{"core.detector_ns_per_access", "ns/access", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratioIf(l.detFaults > 0, l.detNanos, l.accesses)
	}},
	{"policy.tick_ns_per_access", "ns/access", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratioIf(l.ticks > 0, l.tickNanos, l.accesses)
	}},
	{"policy.evals", "count", func(l *layerSums, x layerExtras) (float64, bool) {
		return ratioIf(l.evals > 0, float64(l.evals), float64(x.passes))
	}},
	{"mapping.evaluate_us", "us/eval", func(l *layerSums, _ layerExtras) (float64, bool) {
		v, ok := ratio(l.evalNanos, float64(l.evalCalls))
		return v / 1000, ok
	}},
	{"engine.setup_ms_per_run", "ms/run", func(l *layerSums, x layerExtras) (float64, bool) {
		if l.intervals > 0 {
			return x.setupMsPerInterval, x.setupMsPerInterval > 0
		}
		v, ok := ratioIf(l.nextCalls > 0, l.setupNanos, float64(l.runs))
		return v / 1e6, ok
	}},
	{"scenario.intervals", "count", func(l *layerSums, x layerExtras) (float64, bool) {
		return ratioIf(l.intervals > 0, float64(l.intervals), float64(x.passes))
	}},
	{"scenario.setup_ms_per_interval", "ms/interval", func(l *layerSums, x layerExtras) (float64, bool) {
		return x.setupMsPerInterval, l.intervals > 0 && x.setupMsPerInterval > 0
	}},
	{"engine.shard.merge_share", "ratio", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratio(l.shardMerge, l.shardWall)
	}},
	{"engine.shard.barrier_stall_frac", "ratio", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratio(l.shardBarrier, l.shardSim+l.shardBarrier)
	}},
	{"engine.shard.imbalance", "ratio", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratio(l.shardImbalance, l.shardSim)
	}},
	{"engine.self_ns_per_access", "ns/access", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratioIf(l.replayed > 0 && l.replayed == l.runs, l.selfNanos(), l.accesses)
	}},
	{"engine.residual_frac", "ratio", func(l *layerSums, _ layerExtras) (float64, bool) {
		return ratioIf(l.replayed > 0 && l.replayed == l.runs, l.selfNanos(), l.tracedNanos)
	}},
	{"engine.trace_overhead_frac", "ratio", func(_ *layerSums, x layerExtras) (float64, bool) {
		return x.traceOverhead, x.traceOverhead != 0
	}},
}

// layerExtras carries what the pooled sums cannot: measurements taken
// outside the traced runs.
type layerExtras struct {
	passes             int
	setupMsPerInterval float64
	traceOverhead      float64
}

// selfNanos is the traced time no timed layer accounts for: the engine's
// own loop, plus whatever the tracing itself added. Sampler clears are not
// subtracted, because the live run spends them inside Tick.
func (l *layerSums) selfNanos() float64 {
	return l.tracedNanos - l.nextNanos - l.vm.nanos - l.cache.nanos - l.tickNanos - l.detNanos
}

func ratio(a, b float64) (float64, bool) { return ratioIf(true, a, b) }

func ratioIf(ok bool, a, b float64) (float64, bool) {
	if !ok || b == 0 {
		return 0, false
	}
	return a / b, true
}

// layerMetrics evaluates every per-layer metric; the ones a workload does
// not measure read 0 and are named in the second result.
func layerMetrics(l *layerSums, x layerExtras) ([]metric, []string) {
	out := make([]metric, 0, len(perLayer))
	var missing []string
	for _, pl := range perLayer {
		v, ok := pl.value(l, x)
		if !ok {
			v = 0
			missing = append(missing, pl.name)
		}
		out = append(out, metric{Name: pl.name, Unit: pl.unit, Val: v})
	}
	return out, missing
}
