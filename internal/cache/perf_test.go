package cache

import (
	"runtime"
	"testing"

	"spcd/internal/topology"
)

// TestAccessSteadyStateAllocFree is the allocation regression gate for the
// coherence hot path. Once the directory slab chunks covering the working
// set exist, neither hits nor misses (including evictions, fills, and
// invalidations) may allocate: the engine calls Access once per simulated
// memory reference.
func TestAccessSteadyStateAllocFree(t *testing.T) {
	h := New(topology.DefaultXeon())
	const hot = uint64(0x1000)
	h.Access(0, hot, false, 0)

	if n := testing.AllocsPerRun(200, func() {
		h.Access(0, hot, false, 0)
	}); n != 0 {
		t.Errorf("Access L1-hit path allocates %.1f objects per access, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := h.AccessFast(0, hot, false); !ok {
			t.Fatal("AccessFast missed on an L1-resident line")
		}
	}); n != 0 {
		t.Errorf("AccessFast allocates %.1f objects per access, want 0", n)
	}

	// Steady-state miss traffic: a footprint larger than L2 cycled by two
	// cores with a mix of reads and writes exercises eviction,
	// back-invalidation, c2c transfer, and DRAM fill. Warm one full pass so
	// every directory chunk is allocated, then demand zero allocations.
	lines := 3 * h.l2[0].sets * h.l2[0].ways
	sweep := func() {
		for i := 0; i < lines; i++ {
			addr := uint64(i) * 64
			h.Access(0, addr, i%5 == 0, 0)
			h.Access(16, addr, i%7 == 0, 1) // context on the other socket
		}
	}
	sweep()
	if n := testing.AllocsPerRun(5, sweep); n != 0 {
		t.Errorf("steady-state miss/fill sweep allocates %.1f objects, want 0", n)
	}

	// The worker-side view: the same sweep as one epoch of the sharded
	// engine. Threads 0 and 16 access through Shard.Access, and the barrier
	// merge applies and truncates their streams. After one warm epoch has
	// grown the streams, an epoch allocates nothing.
	streams := make([][]Event, h.mach.NumContexts())
	s := h.NewShard(streams)
	var vtime uint64
	epoch := func() {
		for i := 0; i < lines; i++ {
			addr := uint64(i) * 64
			s.Access(0, addr, i%5 == 0, 0, vtime, 0)
			s.Access(16, addr, i%7 == 0, 1, vtime, 16)
			vtime++
		}
		s.MergeStats()
		h.ApplyStreams(streams)
	}
	epoch()
	if n := testing.AllocsPerRun(5, epoch); n != 0 {
		t.Errorf("steady-state Shard.Access epoch allocates %.1f objects, want 0", n)
	}
}

// TestNewFootprint is the memory gate for a run's fixed cache state: every
// engine run builds a fresh hierarchy, so New may allocate 8 bytes per slot
// (a 32-bit tag and a 32-bit LRU stamp) plus the packed dirty bitsets. The
// stated slack, 1% of that budget, covers the structs and slice headers
// around the arrays.
func TestNewFootprint(t *testing.T) {
	m := topology.DefaultXeon()
	budget := 0
	for _, lv := range []struct {
		g      topology.CacheGeometry
		arrays int
	}{{m.L1, m.NumCores()}, {m.L2, m.NumCores()}, {m.L3, m.Sockets}} {
		slots := lv.g.Size / m.LineSize
		budget += lv.arrays * (8*slots + (slots+63)/64*8)
	}
	limit := uint64(budget + budget/100)
	if got := allocatedBytes(func() { New(m) }); got > limit {
		t.Errorf("New(DefaultXeon) allocated %d bytes, want at most %d (8 bytes per slot plus dirty bits, %d, and 1%% slack)",
			got, limit, budget)
	}
}

// allocatedBytes returns the bytes f allocates (the TotalAlloc delta).
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func BenchmarkAccessL1Hit(b *testing.B) {
	h := New(topology.DefaultXeon())
	h.Access(0, 0x1000, false, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, 0x1000, false, 0)
	}
}

func BenchmarkAccessFastL1Hit(b *testing.B) {
	h := New(topology.DefaultXeon())
	h.Access(0, 0x1000, false, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessFast(0, 0x1000, false)
	}
}

// BenchmarkAccessMissSweep measures the full miss path: L1/L2 evictions,
// L3 fills, and directory maintenance over a footprint larger than L2.
func BenchmarkAccessMissSweep(b *testing.B) {
	h := New(topology.DefaultXeon())
	lines := 3 * h.l2[0].sets * h.l2[0].ways
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, uint64(i%lines)*64, false, 0)
	}
}

// BenchmarkAccessSharedWrite measures the invalidation path: two cores
// ping-pong writes to one line, so every access needs an ownership change.
func BenchmarkAccessSharedWrite(b *testing.B) {
	h := New(topology.DefaultXeon())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i%2*4, 0x2000, true, 0)
	}
}
