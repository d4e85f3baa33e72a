package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// The host this benchmark runs on is shared: other tenants' load slows the
// simulator by up to 40% for minutes at a time, far more than any change
// worth measuring. A fixed probe kernel, timed right before and
// right after every simulator run, measures how fast the host is at that
// moment, and the run's host time is rescaled to what it would have been
// with the probe at its nominal time (see README.md, "Host-speed
// normalisation"). The probe is the benchmark's own code, so a change to the
// simulator cannot change it: a slower simulator still reads slower.
//
// It spends about half its nominal time in a memory-bound part, shaped like
// the simulated caches' lookups (hash to a set of a large set-associative
// table, scan the ways, refresh an LRU stamp), and half in a dependent
// arithmetic chain.
const (
	probeSets      = 1 << 19 // x 8 ways x (tag + stamp) = 64 MiB
	probeWays      = 8
	probeLookups   = 25_000
	probeArith     = 1_200_000
	probeNominalNs = 6.0e6 // the probe time that host times are rescaled to
)

// probeBytes is the memory the probe holds for the life of the process.
const probeBytes = 2 * 8 * probeSets * probeWays

type hostProbe struct {
	tags, stamps []uint64
	x, clock     uint64
	readings     []float64 // every probe time, in milliseconds
}

// newHostProbe maps the probe's table outside the Go heap: as 64 MiB of live
// heap it would pace the garbage collector, which would then collect the
// simulator's garbage less often and make the timed passes faster.
func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("map the host probe's table: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeBytes/8)
	p := &hostProbe{tags: words[:probeSets*probeWays], stamps: words[probeSets*probeWays:], x: 0x9E3779B97F4A7C15}
	// Touch the whole table once so every probe finds it resident.
	for i := range words {
		words[i] = uint64(i)
	}
	return p, nil
}

// sample runs the probe after a simulator run of d nanoseconds: once, plus
// once per 3% of d, so a long run gets as many readings as the short runs
// that could have filled its time.
func (p *hostProbe) sample(d int64) []float64 {
	n := 1 + int(0.03*float64(d)/probeNominalNs)
	out := make([]float64, n)
	for i := range out {
		out[i] = p.run()
	}
	return out
}

// factor returns the rescaling for host time measured between two probe
// samples: the probe's nominal time over its mean time around the run.
func factor(before, after []float64) float64 {
	var sum float64
	for _, v := range before {
		sum += v
	}
	for _, v := range after {
		sum += v
	}
	return probeNominalNs * float64(len(before)+len(after)) / sum
}

// run times one probe and returns its host nanoseconds.
func (p *hostProbe) run() float64 {
	start := nanos()
	x := p.x
	for i := 0; i < probeLookups; i++ {
		x = xorshift(x)
		set := int(x%probeSets) * probeWays
		line := x >> 40
		hit := -1
		for w := 0; w < probeWays; w++ {
			if p.tags[set+w] == line {
				hit = w
				break
			}
		}
		p.clock++
		if hit < 0 {
			hit = 0
			for w := 1; w < probeWays; w++ {
				if p.stamps[set+w] < p.stamps[set+hit] {
					hit = w
				}
			}
			p.tags[set+hit] = line
		}
		p.stamps[set+hit] = p.clock
	}
	for i := 0; i < probeArith; i++ {
		x = xorshift(x)
	}
	p.x = x
	d := float64(nanos() - start)
	p.readings = append(p.readings, d/1e6)
	return d
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
