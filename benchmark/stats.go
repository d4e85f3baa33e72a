package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// clockBase anchors nanos: time.Since on a monotonic base reads one clock,
// where time.Now reads two.
var clockBase = time.Now()

// nanos is the benchmark's host clock, in nanoseconds since start-up. The
// decorators in trace.go call it from inside engine.Run.
func nanos() int64 {
	//lint:ignore determinism-flow the decorators time the simulator's calls into them; the readings feed only the benchmark's host-time metrics and never reach simulation state.
	return int64(time.Since(clockBase))
}

// clockReadNanos measures what one read of nanos costs: a span [a, b]
// around code C measures C plus one read, so every timed span is corrected
// by this amount. The median of many back-to-back pairs resists preemption.
func clockReadNanos() float64 {
	const rounds, pairs = 31, 2000
	med := make([]float64, rounds)
	for r := range med {
		var sum int64
		for i := 0; i < pairs; i++ {
			a := nanos()
			sum += nanos() - a
		}
		med[r] = float64(sum) / pairs
	}
	return median(med)
}

// summary is a sample's median and quartiles as statistics.quantiles(n=4)
// computes them (the exclusive method), plus the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Median = median(xs)
	s.Q1, s.Q3 = s.Median, s.Median
	if len(xs) >= 2 {
		s.Q1, s.Q3 = quantile(xs, 1), quantile(xs, 3)
	}
	return s
}

func median(xs []float64) float64 {
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quantile returns the k-th quartile cut point of xs (len >= 2) with the
// exclusive method: position k*(n+1)/4, interpolated and clamped.
func quantile(xs []float64, k int) float64 {
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	n := len(v)
	m := n + 1
	j := k * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(k*m-j*4) / 4
	return v[j-1] + (v[j]-v[j-1])*delta
}

// host identifies the machine a record was measured on.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; it is "unknown"
// where that file is missing or unreadable (the fingerprint is a label, so
// its absence must not fail a run).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
