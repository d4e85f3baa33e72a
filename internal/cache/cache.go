// Package cache simulates the machine's coherent cache hierarchy: private
// set-associative L1/L2 caches per core, a shared inclusive L3 per socket,
// and a MESI-style directory tracking which cores hold each line. It
// produces the counters the paper reads from PAPI and VTune: L2/L3 misses
// (MPKI), cache-to-cache transactions, invalidations, and local/remote DRAM
// accesses (§V-D, Figures 9-11).
//
// Misses are classified into the three types of §II-A: invalidation misses
// (the line was invalidated by another core's write), capacity misses (the
// line was evicted earlier), and cold misses (first access by this core).
package cache

import (
	"fmt"
	"math/bits"

	"spcd/internal/obs"
	"spcd/internal/topology"
)

// Level identifies where an access was satisfied.
type Level int

const (
	HitL1 Level = iota
	HitL2
	HitL3
	HitC2C  // supplied by another core's private cache
	HitDRAM // supplied by main memory
)

// String names the level.
func (l Level) String() string {
	switch l {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitL3:
		return "L3"
	case HitC2C:
		return "C2C"
	case HitDRAM:
		return "DRAM"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// MissClass classifies a private-cache miss (§II-A).
type MissClass int

const (
	MissNone MissClass = iota
	MissCold
	MissCapacity
	MissInvalidation
)

// AccessResult reports how one memory access was resolved.
type AccessResult struct {
	Cycles      int   // total latency in core cycles
	Level       Level // where the data came from
	CrossSocket bool  // the supplier (cache or DRAM) was on the other socket
	Miss        MissClass
}

// Stats aggregates the hardware-counter equivalents.
type Stats struct {
	Accesses uint64
	Writes   uint64

	L1Hits   uint64
	L1Misses uint64
	L2Hits   uint64
	L2Misses uint64
	L3Hits   uint64
	L3Misses uint64

	C2CSameSocket  uint64 // cache-to-cache transactions within a socket
	C2CCrossSocket uint64 // cache-to-cache transactions between sockets

	DRAMLocal  uint64
	DRAMRemote uint64

	Invalidations uint64 // lines invalidated in other cores by writes

	ColdMisses         uint64
	CapacityMisses     uint64
	InvalidationMisses uint64

	StallCycles uint64 // total latency paid by all accesses
}

// C2CTotal returns all cache-to-cache transactions.
func (s Stats) C2CTotal() uint64 { return s.C2CSameSocket + s.C2CCrossSocket }

// DRAMTotal returns all DRAM accesses.
func (s Stats) DRAMTotal() uint64 { return s.DRAMLocal + s.DRAMRemote }

// array is one physical set-associative cache with LRU replacement. The
// valid and dirty bits are packed bitsets (one bit per slot) so a set's
// metadata shares a cache line with its neighbors instead of spanning a
// []bool, and the set-base computation is a mask when the set count is a
// power of two (it is, for every realistic geometry).
type array struct {
	sets, ways int
	setMask    uint64 // sets-1 when sets is a power of two
	pow2       bool
	tags       []uint64
	valid      []uint64 // packed: bit i = slot i
	dirty      []uint64 // packed: bit i = slot i
	stamp      []uint64
	clock      uint64
}

func newArray(geom topology.CacheGeometry, lineSize int) *array {
	lines := geom.Size / lineSize
	ways := geom.Assoc
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	n := sets * ways
	return &array{
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		pow2:    sets&(sets-1) == 0,
		tags:    make([]uint64, n),
		valid:   make([]uint64, (n+63)/64),
		dirty:   make([]uint64, (n+63)/64),
		stamp:   make([]uint64, n),
	}
}

// setBase returns the first slot of the set holding line.
func (a *array) setBase(line uint64) int {
	if a.pow2 {
		return int(line&a.setMask) * a.ways
	}
	return int(line%uint64(a.sets)) * a.ways
}

func (a *array) isValid(i int) bool { return a.valid[i>>6]&(1<<(uint(i)&63)) != 0 }
func (a *array) setValid(i int)     { a.valid[i>>6] |= 1 << (uint(i) & 63) }
func (a *array) clearValid(i int)   { a.valid[i>>6] &^= 1 << (uint(i) & 63) }
func (a *array) isDirty(i int) bool { return a.dirty[i>>6]&(1<<(uint(i)&63)) != 0 }
func (a *array) setDirty(i int)     { a.dirty[i>>6] |= 1 << (uint(i) & 63) }
func (a *array) clearDirty(i int)   { a.dirty[i>>6] &^= 1 << (uint(i) & 63) }

// find returns the slot holding line, or -1. The tag is compared before the
// valid bit: tags of invalid slots are stale but a match is rare, so the
// common-case iteration touches only the tag array.
func (a *array) find(line uint64) int {
	base := a.setBase(line)
	for i := base; i < base+a.ways; i++ {
		if a.tags[i] == line && a.isValid(i) {
			return i
		}
	}
	return -1
}

// lookup probes for line and refreshes its LRU stamp on a hit.
func (a *array) lookup(line uint64) bool {
	if i := a.find(line); i >= 0 {
		a.clock++
		a.stamp[i] = a.clock
		return true
	}
	return false
}

// probe checks residency without disturbing LRU state.
func (a *array) probe(line uint64) bool { return a.find(line) >= 0 }

// markDirty sets the dirty bit of a resident line.
func (a *array) markDirty(line uint64) {
	if i := a.find(line); i >= 0 {
		a.setDirty(i)
	}
}

// insert places line, evicting the LRU way if the set is full. It returns
// the evicted line and whether one was evicted (and dirty). Victim choice
// (first invalid slot, else lowest stamp in slot order) is part of the
// deterministic simulation contract — do not reorder.
func (a *array) insert(line uint64, dirty bool) (evicted uint64, evictedDirty, hadEviction bool) {
	base := a.setBase(line)
	victim := base
	for w := 0; w < a.ways; w++ {
		i := base + w
		if !a.isValid(i) {
			victim = i
			break
		}
		if a.stamp[i] < a.stamp[victim] {
			victim = i
		}
	}
	if a.isValid(victim) {
		evicted = a.tags[victim]
		evictedDirty = a.isDirty(victim)
		hadEviction = true
	}
	a.clock++
	a.tags[victim] = line
	a.setValid(victim)
	if dirty {
		a.setDirty(victim)
	} else {
		a.clearDirty(victim)
	}
	a.stamp[victim] = a.clock
	return evicted, evictedDirty, hadEviction
}

// invalidate removes line if resident, reporting whether it was dirty.
func (a *array) invalidate(line uint64) (wasDirty, was bool) {
	if i := a.find(line); i >= 0 {
		a.clearValid(i)
		return a.isDirty(i), true
	}
	return false, false
}

// dirEntry is the directory state of one cache line. The owner core is
// stored biased by one so the zero value means "no entry": the directory
// lives in zero-initialized slabs, and a line that was never accessed is
// indistinguishable from one with no sharers, no owner, and no history —
// which is exactly the semantics the old lazily-populated map had.
type dirEntry struct {
	sharers     uint32 // cores holding the line in a private cache
	ownerPlus1  int8   // (core with a modified copy)+1, or 0 for none
	invalidated uint32 // cores whose last copy was killed by an invalidation
	evicted     uint32 // cores whose last copy was evicted for capacity
}

// owner returns the owning core, or -1 if none.
func (e *dirEntry) owner() int { return int(e.ownerPlus1) - 1 }

// setOwner records core as the dirty owner.
func (e *dirEntry) setOwner(core int) { e.ownerPlus1 = int8(core + 1) }

// clearOwner removes the dirty owner.
func (e *dirEntry) clearOwner() { e.ownerPlus1 = 0 }

// The directory is a chunked slab indexed directly by line number: the vm
// frame allocator hands out frames densely from zero, so physical line
// indices are dense and a flat array beats a hash map on every access (the
// map lookup was ~40% of total simulation time). Chunks are allocated on
// first touch; a chunk is dirChunkSize entries (512 KiB).
const (
	dirChunkBits = 15
	dirChunkSize = 1 << dirChunkBits
	dirChunkMask = dirChunkSize - 1
)

// dirChunk holds the directory entries of dirChunkSize consecutive lines.
type dirChunk [dirChunkSize]dirEntry

// Hierarchy is the machine-wide cache system.
type Hierarchy struct {
	mach *topology.Machine

	l1, l2 []*array // per core
	l3     []*array // per socket

	dir []*dirChunk // chunked slab, indexed by line number

	lineShift uint
	stats     Stats

	// pairC2C, when enabled, counts cache-to-cache transfers by
	// (requesting context, supplying core) — the per-event view a PMU
	// exposes through sampled remote-cache-access events. The
	// hardware-counter-based mapping comparator (the paper's ref. [7])
	// reads it.
	pairC2C [][]uint64

	// mergeHeap is ApplyStreams' reused merge heap, one entry per
	// non-empty thread stream.
	mergeHeap []streamHead
}

// New builds the hierarchy for machine m.
func New(m *topology.Machine) *Hierarchy {
	shift := uint(0)
	for 1<<shift != m.LineSize {
		shift++
	}
	h := &Hierarchy{
		mach:      m,
		lineShift: shift,
	}
	for c := 0; c < m.NumCores(); c++ {
		h.l1 = append(h.l1, newArray(m.L1, m.LineSize))
		h.l2 = append(h.l2, newArray(m.L2, m.LineSize))
	}
	for s := 0; s < m.Sockets; s++ {
		h.l3 = append(h.l3, newArray(m.L3, m.LineSize))
	}
	return h
}

// Stats returns a copy of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// RegisterObs wires the hierarchy into an observability probe: every Stats
// counter becomes a registry column read at snapshot time, plus an L1
// hit-rate gauge for the fast-path health check. The access paths are
// untouched — they keep bumping the same plain integers they always did.
func (h *Hierarchy) RegisterObs(p *obs.Probe) {
	if p == nil {
		return
	}
	reg := p.Registry()
	reg.CounterFunc("cache.accesses", func() uint64 { return h.stats.Accesses })
	reg.CounterFunc("cache.writes", func() uint64 { return h.stats.Writes })
	reg.CounterFunc("cache.l1_hits", func() uint64 { return h.stats.L1Hits })
	reg.CounterFunc("cache.l1_misses", func() uint64 { return h.stats.L1Misses })
	reg.CounterFunc("cache.l2_hits", func() uint64 { return h.stats.L2Hits })
	reg.CounterFunc("cache.l2_misses", func() uint64 { return h.stats.L2Misses })
	reg.CounterFunc("cache.l3_hits", func() uint64 { return h.stats.L3Hits })
	reg.CounterFunc("cache.l3_misses", func() uint64 { return h.stats.L3Misses })
	reg.CounterFunc("cache.c2c_same_socket", func() uint64 { return h.stats.C2CSameSocket })
	reg.CounterFunc("cache.c2c_cross_socket", func() uint64 { return h.stats.C2CCrossSocket })
	reg.CounterFunc("cache.dram_local", func() uint64 { return h.stats.DRAMLocal })
	reg.CounterFunc("cache.dram_remote", func() uint64 { return h.stats.DRAMRemote })
	reg.CounterFunc("cache.invalidations", func() uint64 { return h.stats.Invalidations })
	reg.CounterFunc("cache.stall_cycles", func() uint64 { return h.stats.StallCycles })
	reg.GaugeFunc("cache.l1_hit_rate", func() float64 {
		if h.stats.Accesses == 0 {
			return 0
		}
		return float64(h.stats.L1Hits) / float64(h.stats.Accesses)
	})
}

// EnablePairCounters switches on per-(context, supplier core) counting of
// cache-to-cache transfers, the PMU-style view used by hardware-counter
// mapping approaches. Off by default: it costs one increment per transfer.
func (h *Hierarchy) EnablePairCounters() {
	if h.pairC2C != nil {
		return
	}
	h.pairC2C = make([][]uint64, h.mach.NumContexts())
	for i := range h.pairC2C {
		h.pairC2C[i] = make([]uint64, h.mach.NumCores())
	}
}

// PairC2C returns a copy of the (context, supplier core) transfer counts,
// or nil if pair counting is disabled.
func (h *Hierarchy) PairC2C() [][]uint64 {
	if h.pairC2C == nil {
		return nil
	}
	out := make([][]uint64, len(h.pairC2C))
	for i, row := range h.pairC2C {
		out[i] = append([]uint64(nil), row...)
	}
	return out
}

// LineOf returns the cache-line index of a byte address.
func (h *Hierarchy) LineOf(addr uint64) uint64 { return addr >> h.lineShift }

// PageSharerCores returns the union of the directory sharer bitsets over
// every cache line of the page starting at physical byte address addr and
// spanning size bytes: the cores that may privately cache data of that page
// and therefore may hold its translation. The read is alloc-free (untouched
// lines contribute nothing) and does not disturb directory state, so the
// shootdown cost model can consult it on every remap without perturbing the
// coherence simulation.
func (h *Hierarchy) PageSharerCores(addr, size uint64) uint32 {
	first := addr >> h.lineShift
	n := size >> h.lineShift
	if n == 0 {
		n = 1
	}
	var sharers uint32
	for i := uint64(0); i < n; i++ {
		sharers |= h.peekEntry(first + i).sharers
	}
	return sharers
}

func (h *Hierarchy) entry(line uint64) *dirEntry {
	c := line >> dirChunkBits
	if c >= uint64(len(h.dir)) {
		grown := make([]*dirChunk, c+1)
		copy(grown, h.dir)
		h.dir = grown
	}
	ch := h.dir[c]
	if ch == nil {
		ch = new(dirChunk)
		h.dir[c] = ch
	}
	return &ch[line&dirChunkMask]
}

// coreHolds reports whether core c holds the line privately per directory.
func coreHolds(e *dirEntry, c int) bool { return e.sharers&(1<<uint(c)) != 0 }

// dropCore removes core c from the sharer set, recording why.
func (h *Hierarchy) dropCore(e *dirEntry, c int, invalidation bool) {
	e.sharers &^= 1 << uint(c)
	if invalidation {
		e.invalidated |= 1 << uint(c)
	} else {
		e.evicted |= 1 << uint(c)
	}
	if e.owner() == c {
		e.clearOwner()
	}
}

// evictPrivate handles a line leaving core c's private caches for capacity
// reasons: write back into the socket L3 if dirty.
func (h *Hierarchy) evictPrivate(core int, line uint64, dirty bool) {
	e := h.entry(line)
	h.dropCore(e, core, false)
	if dirty {
		socket := core / h.mach.CoresPerSocket
		h.fillL3(socket, line, true)
	}
}

// fillL3 inserts a line into socket s's L3, handling inclusive back-
// invalidation of the socket's private caches when the L3 evicts.
func (h *Hierarchy) fillL3(socket int, line uint64, dirty bool) {
	if h.l3[socket].probe(line) {
		if dirty {
			h.l3[socket].markDirty(line)
		}
		h.l3[socket].lookup(line) // refresh LRU
		return
	}
	evicted, _, had := h.l3[socket].insert(line, dirty)
	if !had {
		return
	}
	// Inclusive L3: private copies of the evicted line on this socket
	// must go too (back-invalidation, a capacity effect).
	e := h.entry(evicted)
	if e.sharers == 0 {
		return
	}
	for c := socket * h.mach.CoresPerSocket; c < (socket+1)*h.mach.CoresPerSocket; c++ {
		if coreHolds(e, c) {
			h.l1[c].invalidate(evicted)
			h.l2[c].invalidate(evicted)
			h.dropCore(e, c, false)
		}
	}
}

// fillPrivate inserts a line into core c's L1, spilling L1 victims into L2
// and L2 victims out of the core.
func (h *Hierarchy) fillPrivate(core int, line uint64, dirty bool) {
	e := h.entry(line)
	e.sharers |= 1 << uint(core)
	e.invalidated &^= 1 << uint(core)
	e.evicted &^= 1 << uint(core)
	if dirty {
		e.setOwner(core)
	}
	v1, d1, had1 := h.l1[core].insert(line, dirty)
	if had1 && v1 != line {
		v2, d2, had2 := h.l2[core].insert(v1, d1)
		if had2 && v2 != v1 {
			h.evictPrivate(core, v2, d2)
		}
	}
}

// classify determines the miss class for core c per the directory history.
func classify(e *dirEntry, c int) MissClass {
	switch {
	case e.invalidated&(1<<uint(c)) != 0:
		return MissInvalidation
	case e.evicted&(1<<uint(c)) != 0:
		return MissCapacity
	default:
		return MissCold
	}
}

// Access performs a memory access by hardware context ctx to byte address
// addr. node is the NUMA node homing the backing frame (from the page
// table); write indicates a store. It returns the latency and provenance.
func (h *Hierarchy) Access(ctx int, addr uint64, write bool, node int) AccessResult {
	m := h.mach
	line := h.LineOf(addr)
	core := m.CoreOf(ctx)
	socket := m.SocketOf(ctx)
	h.stats.Accesses++
	if write {
		h.stats.Writes++
	}

	res := h.resolve(ctx, core, socket, line, write, node)
	h.stats.StallCycles += uint64(res.Cycles)
	return res
}

// AccessFast is the allocation-free fast path of Access: it succeeds only
// when the access hits the requesting core's L1 and needs no coherence
// action beyond what the hit itself implies — any read hit, or a write hit
// when this core is the line's sole sharer. On success it performs exactly
// the state transitions and counter updates the full path would (LRU
// refresh, dirty bit, ownership, Accesses/Writes/L1Hits/StallCycles) and
// returns the L1 latency; no AccessResult is built and, for reads, the
// directory is never touched. On ok=false nothing is modified and the
// caller must fall back to Access.
func (h *Hierarchy) AccessFast(ctx int, addr uint64, write bool) (cycles int, ok bool) {
	line := addr >> h.lineShift
	a := h.l1[h.mach.CoreOf(ctx)]
	i := a.find(line)
	if i < 0 {
		return 0, false
	}
	if write {
		core := h.mach.CoreOf(ctx)
		e := h.entry(line)
		if e.sharers != 1<<uint(core) {
			// Other cores hold copies: the full path must invalidate them.
			return 0, false
		}
		a.setDirty(i)
		e.setOwner(core)
		h.stats.Writes++
	}
	a.clock++
	a.stamp[i] = a.clock
	h.stats.Accesses++
	h.stats.L1Hits++
	h.stats.StallCycles += uint64(h.mach.Lat.L1)
	return h.mach.Lat.L1, true
}

func (h *Hierarchy) resolve(ctx, core, socket int, line uint64, write bool, node int) AccessResult {
	m := h.mach
	e := h.entry(line)

	// Private hit path. The directory is authoritative for coherence; the
	// arrays are authoritative for residency (they agree by construction).
	if h.l1[core].lookup(line) {
		h.stats.L1Hits++
		if write {
			h.l1[core].markDirty(line)
			h.invalidateOthers(e, core, line)
			e.setOwner(core)
		}
		return AccessResult{Cycles: m.Lat.L1, Level: HitL1}
	}
	h.stats.L1Misses++
	if h.l2[core].lookup(line) {
		h.stats.L2Hits++
		// Promote into L1.
		dirty, _ := h.l2[core].invalidate(line)
		if write {
			h.invalidateOthers(e, core, line)
			e.setOwner(core)
			dirty = true
		}
		v1, d1, had1 := h.l1[core].insert(line, dirty)
		if had1 && v1 != line {
			v2, d2, had2 := h.l2[core].insert(v1, d1)
			if had2 && v2 != v1 {
				h.evictPrivate(core, v2, d2)
			}
		}
		return AccessResult{Cycles: m.Lat.L2, Level: HitL2}
	}
	h.stats.L2Misses++

	miss := classify(e, core)
	switch miss {
	case MissCold:
		h.stats.ColdMisses++
	case MissCapacity:
		h.stats.CapacityMisses++
	case MissInvalidation:
		h.stats.InvalidationMisses++
	}

	// The line is not in this core. If another core owns it dirty, a
	// cache-to-cache transfer supplies the data.
	if ow := e.owner(); ow >= 0 && ow != core {
		ownerCore := ow
		ownerSocket := ownerCore / m.CoresPerSocket
		cross := ownerSocket != socket
		var cycles int
		if cross {
			h.stats.C2CCrossSocket++
			cycles = m.Lat.C2CCrossSocket
		} else {
			h.stats.C2CSameSocket++
			cycles = m.Lat.C2CSameSocket
		}
		if h.pairC2C != nil {
			h.pairC2C[ctx][ownerCore]++
		}
		if write {
			// RFO: the owner's copy is invalidated.
			h.l1[ownerCore].invalidate(line)
			h.l2[ownerCore].invalidate(line)
			h.dropCore(e, ownerCore, true)
			h.stats.Invalidations++
		} else {
			// Downgrade: owner keeps a clean copy, dirty data is
			// written back to the owner's L3.
			e.clearOwner()
			h.fillL3(ownerSocket, line, true)
		}
		h.fillL3(socket, line, false)
		h.fillPrivate(core, line, write)
		return AccessResult{Cycles: cycles, Level: HitC2C, CrossSocket: cross, Miss: miss}
	}

	// Local L3?
	if h.l3[socket].lookup(line) {
		h.stats.L3Hits++
		if write {
			h.invalidateOthers(e, core, line)
		}
		h.fillPrivate(core, line, write)
		return AccessResult{Cycles: m.Lat.L3, Level: HitL3, Miss: miss}
	}
	h.stats.L3Misses++

	// Remote socket's L3 (clean sharing across sockets)?
	for s := 0; s < m.Sockets; s++ {
		if s == socket {
			continue
		}
		if h.l3[s].probe(line) {
			h.stats.C2CCrossSocket++
			if write {
				h.invalidateOthers(e, core, line)
				// The remote L3 copy becomes stale on a write.
				h.l3[s].invalidate(line)
			}
			h.fillL3(socket, line, false)
			h.fillPrivate(core, line, write)
			return AccessResult{Cycles: m.Lat.C2CCrossSocket, Level: HitC2C, CrossSocket: true, Miss: miss}
		}
	}

	// DRAM access on the homing node.
	cross := node != m.SocketOf(ctx)
	var cycles int
	if cross {
		h.stats.DRAMRemote++
		cycles = m.Lat.DRAMRemote
	} else {
		h.stats.DRAMLocal++
		cycles = m.Lat.DRAMLocal
	}
	if write {
		h.invalidateOthers(e, core, line)
	}
	h.fillL3(socket, line, false)
	h.fillPrivate(core, line, write)
	return AccessResult{Cycles: cycles, Level: HitDRAM, CrossSocket: cross, Miss: miss}
}

// invalidateOthers kills every other core's private copy of line (a write
// gaining exclusive ownership). It walks only the set bits of the sharer
// mask (ascending core order, matching the old full scan) so the common
// no-sharer and sole-sharer cases cost one mask test.
func (h *Hierarchy) invalidateOthers(e *dirEntry, core int, line uint64) {
	rest := e.sharers &^ (1 << uint(core))
	for rest != 0 {
		c := bits.TrailingZeros32(rest)
		rest &= rest - 1
		h.l1[c].invalidate(line)
		h.l2[c].invalidate(line)
		h.dropCore(e, c, true)
		h.stats.Invalidations++
	}
}

// String summarizes the counter state.
func (h *Hierarchy) String() string {
	s := h.stats
	return fmt.Sprintf("cache: %d accesses, L1 %.1f%% hit, c2c %d (%d cross), DRAM %d (%d remote)",
		s.Accesses, 100*float64(s.L1Hits)/float64(max64(s.Accesses, 1)),
		s.C2CTotal(), s.C2CCrossSocket, s.DRAMTotal(), s.DRAMRemote)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
