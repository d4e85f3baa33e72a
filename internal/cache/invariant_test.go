package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"spcd/internal/topology"
)

// checkConsistency verifies the structural invariant between the coherence
// directory and the cache arrays: a core holds a line in its private caches
// if and only if the directory lists it as a sharer, a line never resides in
// both L1 and L2 of one core (the exclusive design), and a dirty owner is
// always a sharer.
func (h *Hierarchy) checkConsistency() error {
	type residency struct{ l1, l2 bool }
	resident := make(map[uint64]map[int]*residency)
	record := func(a *array, core int, isL1 bool) {
		for _, tag := range a.tags {
			if tag == 0 {
				continue
			}
			line := uint64(tag - 1)
			if resident[line] == nil {
				resident[line] = make(map[int]*residency)
			}
			r := resident[line][core]
			if r == nil {
				r = &residency{}
				resident[line][core] = r
			}
			if isL1 {
				r.l1 = true
			} else {
				r.l2 = true
			}
		}
	}
	for c := range h.l1 {
		record(h.l1[c], c, true)
		record(h.l2[c], c, false)
	}
	// Array residency implies directory sharing (and exclusivity).
	for line, cores := range resident {
		e := h.entry(line)
		for core, r := range cores {
			if r.l1 && r.l2 {
				return fmt.Errorf("line %#x in both L1 and L2 of core %d", line, core)
			}
			if !coreHolds(e, core) {
				return fmt.Errorf("line %#x resident in core %d but not in directory", line, core)
			}
		}
	}
	// Directory sharing implies array residency; owners are sharers.
	for ci, ch := range h.dir {
		if ch == nil {
			continue
		}
		for li := range ch {
			e := &ch[li]
			if e.sharers == 0 && e.ownerPlus1 == 0 {
				continue
			}
			line := uint64(ci)<<dirChunkBits | uint64(li)
			if ow := e.owner(); ow >= 0 && !coreHolds(e, ow) {
				return fmt.Errorf("line %#x owned by core %d which is not a sharer", line, ow)
			}
			for c := 0; c < h.mach.NumCores(); c++ {
				if !coreHolds(e, c) {
					continue
				}
				r := resident[line][c]
				if r == nil {
					return fmt.Errorf("directory says core %d holds line %#x but arrays disagree", c, line)
				}
			}
		}
	}
	return nil
}

// TestDirectoryArrayConsistency drives random traffic through the hierarchy
// and checks the directory/array invariant at intervals. This is the
// correctness backbone of the coherence model: every c2c and invalidation
// count the evaluation reports depends on it.
func TestDirectoryArrayConsistency(t *testing.T) {
	h := New(topology.DefaultXeon())
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 40; step++ {
		for i := 0; i < 2500; i++ {
			ctx := rng.Intn(32)
			// Mix of hot shared lines and a wide private range to force
			// evictions and invalidations.
			var addr uint64
			if rng.Float64() < 0.3 {
				addr = uint64(rng.Intn(256)) * 64
			} else {
				addr = 1<<20 + uint64(rng.Intn(200_000))*64
			}
			h.Access(ctx, addr, rng.Intn(3) == 0, rng.Intn(2))
		}
		if err := h.checkConsistency(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestPairCountersMatchTotals verifies that the per-pair counters, when
// enabled, sum to the aggregate owner-transfer count.
func TestPairCountersMatchTotals(t *testing.T) {
	h := New(topology.DefaultXeon())
	h.EnablePairCounters()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30_000; i++ {
		h.Access(rng.Intn(32), uint64(rng.Intn(512))*64, rng.Intn(2) == 0, 0)
	}
	pair := h.PairC2C()
	var sum uint64
	for _, row := range pair {
		for _, v := range row {
			sum += v
		}
	}
	st := h.Stats()
	if sum > st.C2CTotal() {
		t.Fatalf("pair counters (%d) exceed total c2c (%d)", sum, st.C2CTotal())
	}
	if sum == 0 {
		t.Fatal("no pair transfers recorded under contention")
	}
	// Pair counters only record owner-supplied transfers (not clean
	// remote-L3 hits), so they bound from below but must account for the
	// majority under write-heavy sharing.
	if sum*2 < st.C2CTotal() {
		t.Errorf("pair counters (%d) cover under half of c2c total (%d)", sum, st.C2CTotal())
	}
}

func TestPairCountersDisabledByDefault(t *testing.T) {
	h := New(topology.DefaultXeon())
	h.Access(0, 0, true, 0)
	h.Access(2, 0, false, 0)
	if h.PairC2C() != nil {
		t.Error("pair counters should be nil unless enabled")
	}
	h.EnablePairCounters()
	h.EnablePairCounters() // idempotent
	if h.PairC2C() == nil {
		t.Error("pair counters missing after enable")
	}
}

// hierarchyChecker replays fuzzer-chosen accesses on a reused hierarchy:
// base is a warmed tinyMachine hierarchy and h is reset to it for every
// input, so the directory chunk is allocated once.
type hierarchyChecker struct {
	m       *topology.Machine
	lines   []uint64
	base, h *Hierarchy
}

func newHierarchyChecker() *hierarchyChecker {
	m := tinyMachine()
	c := &hierarchyChecker{m: m, base: New(m), h: New(m)}
	c.lines = collidingLines(c.base)
	warm(c.base)
	return c
}

// checkCounters verifies the counter identities every access must keep:
// each access is an L1 hit or miss, each L1 miss an L2 hit or miss, each
// L2 miss has exactly one miss class and is supplied by exactly one of the
// L3, another cache or DRAM, and StallCycles is the sum of the latencies
// returned since start.
func checkCounters(s Stats, start, returned uint64) error {
	switch {
	case s.Accesses != s.L1Hits+s.L1Misses:
		return fmt.Errorf("Accesses %d != L1Hits %d + L1Misses %d", s.Accesses, s.L1Hits, s.L1Misses)
	case s.L1Misses != s.L2Hits+s.L2Misses:
		return fmt.Errorf("L1Misses %d != L2Hits %d + L2Misses %d", s.L1Misses, s.L2Hits, s.L2Misses)
	case s.ColdMisses+s.CapacityMisses+s.InvalidationMisses != s.L2Misses:
		return fmt.Errorf("miss classes %d+%d+%d != L2Misses %d",
			s.ColdMisses, s.CapacityMisses, s.InvalidationMisses, s.L2Misses)
	case s.L2Misses != s.L3Hits+s.C2CTotal()+s.DRAMTotal():
		return fmt.Errorf("L2Misses %d != L3Hits %d + C2C %d + DRAM %d",
			s.L2Misses, s.L3Hits, s.C2CTotal(), s.DRAMTotal())
	case s.StallCycles-start != returned:
		return fmt.Errorf("StallCycles grew by %d, accesses returned %d cycles", s.StallCycles-start, returned)
	}
	return nil
}

// checkOwners verifies that every owned line in the pool has its owner as
// its only sharer (MESI's M state is exclusive).
func (c *hierarchyChecker) checkOwners() error {
	for _, line := range c.lines {
		e := c.h.peekEntry(line)
		if ow := e.owner(); ow >= 0 && e.sharers != 1<<uint(ow) {
			return fmt.Errorf("line %#x owned by core %d but sharers are %#x", line, ow, e.sharers)
		}
	}
	return nil
}

// run replays the accesses draw chooses, falling back from AccessFast to
// Access as the engine does. It checks the counters and owners after every
// access, and runs checkConsistency after every consistencyEvery accesses
// and after the last.
func (c *hierarchyChecker) run(draw func(n int) int, ops, consistencyEvery int) error {
	restore(c.h, c.base)
	h := c.h
	start := h.stats.StallCycles
	var returned uint64
	for op := 0; op < ops; op++ {
		ctx := draw(c.m.NumContexts())
		addr := c.lines[draw(len(c.lines))] << h.lineShift
		write := draw(2) == 1
		node := draw(c.m.Sockets)
		cycles, ok := h.AccessFast(ctx, addr, write)
		if !ok {
			cycles = h.Access(ctx, addr, write, node).Cycles
		}
		returned += uint64(cycles)
		if err := checkCounters(h.stats, start, returned); err != nil {
			return fmt.Errorf("op %d: %v", op, err)
		}
		if err := c.checkOwners(); err != nil {
			return fmt.Errorf("op %d: %v", op, err)
		}
		if (op+1)%consistencyEvery == 0 || op == ops-1 {
			if err := h.checkConsistency(); err != nil {
				return fmt.Errorf("op %d: %v", op, err)
			}
		}
	}
	return nil
}

// FuzzHierarchy's bounds. checkConsistency scans a whole 32Ki-entry
// directory chunk, which dominates an exec, so an input is at most 64
// accesses with a full check every 32: that keeps execs, and the
// minimizer's quadratic retries of an interesting input, cheap enough for
// a 10 s smoke run to explore. TestHierarchyInvariants checks every 8
// accesses on longer sequences.
const (
	fuzzHierarchyOps         = 64
	fuzzHierarchyConsistency = 32
)

// FuzzHierarchy checks the MESI invariants under fuzzer-chosen access
// sequences on tinyMachine, whose few-set caches overflow at every level
// with collidingLines. Every four bytes are one access (context, line,
// write, node), up to fuzzHierarchyOps accesses. The seed corpus is in
// testdata/fuzz/FuzzHierarchy.
func FuzzHierarchy(f *testing.F) {
	c := newHierarchyChecker()
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := min((len(data)+3)/4, fuzzHierarchyOps)
		if err := c.run(byteDraw(data), ops, fuzzHierarchyConsistency); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHierarchyInvariants runs FuzzHierarchy's checks on seeded random
// access sequences, longer than the corpus entries.
func TestHierarchyInvariants(t *testing.T) {
	c := newHierarchyChecker()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if err := c.run(rng.Intn, 2000, 8); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
