package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
)

// setupShare is the least share of a run's length spent timing set-up.
const setupShare = 0.1

// runResult is what one measurement process reports: raw samples of the
// end-to-end metrics, or the per-layer metrics of a traced run.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Digest    string   `json:"digest"`
	Passes    int      `json:"passes"`
	// MemoryPasses is how many passes the memory process ran.
	MemoryPasses int `json:"memory_passes,omitempty"`
	Procs        int `json:"procs"` // GOMAXPROCS during the measurement
	// SetupIntervals is how many serving intervals one set-up pass ran.
	SetupIntervals int                  `json:"setup_intervals,omitempty"`
	Samples        map[string][]float64 `json:"samples"`
	Layers         []metric             `json:"layers,omitempty"`
	NotMeasured    []string             `json:"not_measured,omitempty"`
	Configs        []configLayers       `json:"configs,omitempty"`
	ClockReadNs    float64              `json:"clock_read_ns,omitempty"`
}

// configLayers is one run's layer breakdown in a traced pass.
type configLayers struct {
	Key     string   `json:"key"`
	Metrics []metric `json:"metrics"`
}

func (r *runResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// passOut is one pass over a workload's runs.
type passOut struct {
	accesses  uint64
	runNanos  int64
	normNanos float64 // runNanos rescaled by the host probe (0 without one)
	intervals int
	digests   []uint64 // 0 where the run failed
	layers    []*layerSums
}

// runPass runs every job once. With a probe, it samples the host's speed
// before the first run and after each run, and rescales each run's time by
// the samples around it.
func runPass(jobs []job, traced bool, readNs float64, probe *hostProbe, res *runResult) passOut {
	out := passOut{digests: make([]uint64, len(jobs)), layers: make([]*layerSums, len(jobs))}
	var before []float64
	if probe != nil {
		before = probe.sample(0)
	}
	for i, j := range jobs {
		res.Attempted++
		r, err := runJob(j, traced, readNs)
		if probe != nil {
			after := probe.sample(r.runNanos)
			out.normNanos += float64(r.runNanos) * factor(before, after)
			before = after
		}
		if err != nil {
			res.fail(err)
			continue
		}
		out.accesses += r.accesses
		out.runNanos += r.runNanos
		out.intervals += r.intervals
		out.digests[i] = r.digest
		out.layers[i] = r.layers
	}
	return out
}

// runJob runs j, turning a panic into that run's error.
func runJob(j job, traced bool, readNs float64) (r jobResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%s: panic: %v", j.key(), v)
		}
	}()
	return j.run(traced, readNs)
}

// checkDigests fails every run whose output differs from the first
// successful output of the same run.
func checkDigests(jobs []job, ref, got []uint64, what string, res *runResult) {
	for i, d := range got {
		switch {
		case d == 0:
		case ref[i] == 0:
			ref[i] = d
		case d != ref[i]:
			res.fail(fmt.Errorf("%s: %s digest %016x differs from %016x", jobs[i].key(), what, d, ref[i]))
		}
	}
}

// measure runs one workload for about seconds of passes. Untraced, it
// samples sim_accesses_per_s and alloc_mb once per pass, with host time
// normalised by the probe; traced, it alternates an untraced pass with a
// traced one and reports the per-layer metrics of the traced passes, in raw
// host time. Both time setup_s first.
func measure(wl *benchWorkload, seed int64, seconds float64, trace bool) (*runResult, error) {
	res := &runResult{Workload: wl.name, Seed: seed, Trace: trace, Procs: runtime.GOMAXPROCS(0),
		Samples: map[string][]float64{}}
	var readNs float64
	var probe *hostProbe
	if trace {
		readNs = clockReadNanos()
		res.ClockReadNs = readNs
	} else {
		var err error
		if probe, err = newHostProbe(); err != nil {
			return nil, err
		}
	}

	setup := wl.setupJobs(seed)
	var before []float64
	if probe != nil {
		before = probe.sample(0)
	}
	setupNanos := int64(seconds * setupShare * 1e9)
	for begin := nanos(); len(res.Samples["setup_s"]) < wl.setupReps || nanos()-begin < setupNanos; {
		runtime.GC()
		start := nanos()
		out := runPass(setup, false, 0, nil, res)
		wall := nanos() - start
		res.SetupIntervals = out.intervals
		f := 1.0
		if probe != nil {
			after := probe.sample(wall)
			f = factor(before, after)
			before = after
			res.Samples["setup_raw_s"] = append(res.Samples["setup_raw_s"], float64(wall)/1e9)
		}
		res.Samples["setup_s"] = append(res.Samples["setup_s"], float64(wall)*f/1e9)
	}

	jobs := wl.pass(seed)
	ref := make([]uint64, len(jobs))
	pooled := &layerSums{}
	perJob := make([]*layerSums, len(jobs))
	var untracedRun, tracedRun []float64
	deadline := nanos() + int64(seconds*1e9)
	for res.Passes == 0 || nanos() < deadline {
		res.Passes++
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		out := runPass(jobs, false, readNs, probe, res)
		runtime.ReadMemStats(&after)
		checkDigests(jobs, ref, out.digests, "pass", res)
		if !trace {
			acc := float64(out.accesses)
			res.Samples["sim_accesses_per_s"] = append(res.Samples["sim_accesses_per_s"], acc/(out.normNanos/1e9))
			res.Samples["raw_accesses_per_s"] = append(res.Samples["raw_accesses_per_s"], acc/(float64(out.runNanos)/1e9))
			// The probe's own allocations are a few slices per run.
			res.Samples["alloc_mb"] = append(res.Samples["alloc_mb"], float64(after.TotalAlloc-before.TotalAlloc)/1e6)
			continue
		}
		untracedRun = append(untracedRun, float64(out.runNanos))

		runtime.GC()
		tout := runPass(jobs, true, readNs, nil, res)
		checkDigests(jobs, ref, tout.digests, "traced", res)
		tracedRun = append(tracedRun, float64(tout.runNanos))
		for i, l := range tout.layers {
			if l == nil {
				continue
			}
			pooled.add(l)
			if perJob[i] == nil {
				perJob[i] = &layerSums{}
			}
			perJob[i].add(l)
		}
	}

	if probe != nil {
		res.Samples["host_probe_ms"] = probe.readings
	}

	res.Digest = digestOf(ref)

	if trace {
		x := layerExtras{passes: res.Passes}
		if res.SetupIntervals > 0 {
			x.setupMsPerInterval = median(res.Samples["setup_s"]) * 1000 / float64(res.SetupIntervals)
		}
		if u := median(untracedRun); u > 0 {
			x.traceOverhead = median(tracedRun)/u - 1
		}
		res.Layers, res.NotMeasured = layerMetrics(pooled, x)
		for i, l := range perJob {
			if l == nil {
				continue
			}
			m, _ := layerMetrics(l, layerExtras{passes: res.Passes})
			res.Configs = append(res.Configs, configLayers{Key: jobs[i].key(), Metrics: configColumns(m)})
		}
	}
	return res, nil
}

// memoryRun runs a workload's passes for about seconds, and nothing else,
// so that the process's peak RSS is the workload's own.
func memoryRun(wl *benchWorkload, seed int64, seconds float64) *runResult {
	res := &runResult{Workload: wl.name, Seed: seed, Procs: runtime.GOMAXPROCS(0), Samples: map[string][]float64{}}
	jobs := wl.pass(seed)
	ref := make([]uint64, len(jobs))
	for deadline := nanos() + int64(seconds*1e9); res.Passes == 0 || nanos() < deadline; res.Passes++ {
		out := runPass(jobs, false, 0, nil, res)
		checkDigests(jobs, ref, out.digests, "pass", res)
	}
	res.Digest = digestOf(ref)
	return res
}

// digestOf hashes a pass's per-run digests into the workload's digest.
func digestOf(ref []uint64) string {
	h := fnv.New64a()
	for _, d := range ref {
		fmt.Fprintf(h, "%016x", d)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// configColumns keeps the per-run breakdown to the layer-sum terms.
func configColumns(all []metric) []metric {
	keep := map[string]bool{
		"engine.traced_ns_per_access": true, "workloads.ns_per_access": true,
		"vm.ns_per_access": true, "cache.ns_per_access": true,
		"policy.tick_ns_per_access": true, "core.detector_ns_per_access": true,
		"engine.self_ns_per_access": true, "engine.residual_frac": true,
	}
	var out []metric
	for _, m := range all {
		if keep[m.Name] {
			out = append(out, m)
		}
	}
	return out
}
