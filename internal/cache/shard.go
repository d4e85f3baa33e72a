// Sharded execution support: a Shard is the worker-side view of the
// hierarchy used by the engine's epoch-sharded mode (DESIGN.md §13). During
// an epoch a worker simulates the accesses of the cores it owns against
//
//   - its cores' own L1/L2 arrays, mutated live (a core belongs to exactly
//     one worker per epoch, so these writes race with nothing), and
//   - the shared structures — directory and the per-socket L3s — read
//     *frozen*: they are only ever mutated by the single-threaded merge
//     step at the epoch barrier, so workers see a stable epoch-start image.
//
// Every effect an access has on shared or foreign-core state (directory
// sharer/owner updates, invalidations of other cores' copies, L3 fills and
// refreshes, private-eviction write-backs) is recorded as an Event instead
// of applied, appended to the issuing thread's own event stream. At the
// barrier, ApplyStreams merges the streams in canonical (virtual-time,
// thread, stream-position) order and applies them against the live
// hierarchy using the same helpers the sequential engine uses.
//
// The resulting coherence semantics are epoch-relaxed — cross-core effects
// become visible at epoch boundaries rather than instantly — but they are a
// pure function of the epoch schedule and the per-thread streams, never of
// the worker count or core-to-worker assignment. That is the property the
// sharded engine's byte-identity contract rests on.

package cache

// EventKind discriminates the deferred shared-state effects of one access.
type EventKind uint8

const (
	// EvUpgrade: a write hit in the requester's private cache. Merge
	// invalidates every other sharer and records the writer as owner.
	EvUpgrade EventKind = iota
	// EvInvalOthers: a write that misses privately gains exclusivity.
	// Merge invalidates every other sharer (ownership is recorded
	// separately by the EvFillDir of the same access).
	EvInvalOthers
	// EvEvict: a line left the core's private caches for capacity reasons.
	// Merge drops the core from the sharer set and writes dirty data back
	// to the core's socket L3.
	EvEvict
	// EvRFO: a write found a dirty owner; merge invalidates the owner's
	// private copies and drops its ownership.
	EvRFO
	// EvDowngrade: a read found a dirty owner; merge clears ownership and
	// writes the dirty line back to the owner's socket L3.
	EvDowngrade
	// EvL3Refresh: the access hit the socket L3; merge refreshes (or, if
	// the line was evicted by an earlier merge event, restores) it.
	EvL3Refresh
	// EvL3Fill: merge inserts the line into a socket L3 (back-invalidating
	// inclusively on eviction, exactly like the sequential path).
	EvL3Fill
	// EvL3Inval: a write invalidated a remote socket's stale L3 copy.
	EvL3Inval
	// EvFillDir: the requester filled the line into its private caches;
	// merge records it as a sharer (and owner, when the fill was a write).
	EvFillDir
)

// Event is one deferred shared-state effect. VTime is the issuing thread's
// cycle clock at the start of the access that produced it. The thread is
// the stream the event sits in, and its position in that stream orders it
// among the thread's events: (VTime, thread, position) is a total order
// that depends only on the simulated schedule, never on worker count.
type Event struct {
	VTime uint64
	Line  uint64
	Kind  EventKind
	// Core is the requesting or owning core for private-cache kinds, and
	// the socket index for the L3 kinds.
	Core  int16
	Dirty bool
}

// Shard is one worker's accumulation state: a private Stats delta and the
// run-wide per-thread event streams (workers append to disjoint streams —
// a thread runs on exactly one worker per epoch).
type Shard struct {
	h       *Hierarchy
	stats   Stats
	streams [][]Event
}

// NewShard creates a worker view over h. streams must be the run-wide
// per-thread event streams, indexed by thread id and shared by all shards
// of the run.
func (h *Hierarchy) NewShard(streams [][]Event) *Shard {
	return &Shard{h: h, streams: streams}
}

// peekEntry returns a copy of line's directory entry without allocating a
// chunk: a never-touched line reads as the zero entry, which is exactly the
// semantics entry() would create for it. Safe for concurrent readers while
// the directory is quiescent (between merges).
func (h *Hierarchy) peekEntry(line uint64) dirEntry {
	c := line >> dirChunkBits
	if c >= uint64(len(h.dir)) || h.dir[c] == nil {
		return dirEntry{}
	}
	return h.dir[c][line&dirChunkMask]
}

// emit appends a deferred effect of the current access to the issuing
// thread's stream.
func (s *Shard) emit(vtime uint64, thread int, kind EventKind, core int, line uint64, dirty bool) {
	s.streams[thread] = append(s.streams[thread], Event{
		VTime: vtime, Kind: kind, Core: int16(core), Line: line, Dirty: dirty,
	})
}

// fillPrivateLocal mirrors fillPrivate for the worker side: the core's own
// arrays are updated live, the directory update and any out-of-core
// spill become events.
func (s *Shard) fillPrivateLocal(vtime uint64, thread, core int, line uint64, write bool) {
	s.emit(vtime, thread, EvFillDir, core, line, write)
	if v, d, ok := s.h.fillL1(core, line, write); ok {
		s.emit(vtime, thread, EvEvict, core, v, d)
	}
}

// Access resolves one access on the worker side. Latencies and hit levels
// are decided against the core's live private caches and the frozen
// epoch-start image of the directory and L3s; all shared-state mutations
// are deferred as events. vtime is the issuing thread's clock at the start
// of the access.
func (s *Shard) Access(ctx int, addr uint64, write bool, node int, vtime uint64, thread int) int {
	h := s.h
	m := h.mach
	line := addr >> h.lineShift
	core := m.CoreOf(ctx)
	socket := m.SocketOf(ctx)
	s.stats.Accesses++
	if write {
		s.stats.Writes++
	}

	// Private L1 hit against the live (worker-owned) array.
	l1 := h.l1[core]
	if i := l1.find(line); i >= 0 {
		l1.touch(i)
		s.stats.L1Hits++
		if write {
			l1.setDirty(i)
			s.emit(vtime, thread, EvUpgrade, core, line, true)
		}
		s.stats.StallCycles += uint64(m.Lat.L1)
		return m.Lat.L1
	}
	s.stats.L1Misses++
	if i := h.l2[core].find(line); i >= 0 {
		s.stats.L2Hits++
		dirty := h.l2[core].empty(i)
		if write {
			s.emit(vtime, thread, EvUpgrade, core, line, true)
			dirty = true
		}
		if v, d, ok := h.fillL1(core, line, dirty); ok {
			s.emit(vtime, thread, EvEvict, core, v, d)
		}
		s.stats.StallCycles += uint64(m.Lat.L2)
		return m.Lat.L2
	}
	s.stats.L2Misses++

	e := h.peekEntry(line)
	miss := classify(&e, core)
	switch miss {
	case MissCold:
		s.stats.ColdMisses++
	case MissCapacity:
		s.stats.CapacityMisses++
	case MissInvalidation:
		s.stats.InvalidationMisses++
	}

	// Dirty owner per the epoch-start directory: cache-to-cache transfer.
	if ow := e.owner(); ow >= 0 && ow != core {
		ownerSocket := ow / m.CoresPerSocket
		cross := ownerSocket != socket
		var cycles int
		if cross {
			s.stats.C2CCrossSocket++
			cycles = m.Lat.C2CCrossSocket
		} else {
			s.stats.C2CSameSocket++
			cycles = m.Lat.C2CSameSocket
		}
		if h.pairC2C != nil {
			h.pairC2C[ctx][ow]++
		}
		if write {
			s.emit(vtime, thread, EvRFO, ow, line, false)
		} else {
			s.emit(vtime, thread, EvDowngrade, ow, line, false)
		}
		s.emit(vtime, thread, EvL3Fill, socket, line, false)
		s.fillPrivateLocal(vtime, thread, core, line, write)
		s.stats.StallCycles += uint64(cycles)
		return cycles
	}

	// Local socket L3, frozen image (find does not disturb LRU).
	if h.l3[socket].find(line) >= 0 {
		s.stats.L3Hits++
		if write {
			s.emit(vtime, thread, EvInvalOthers, core, line, false)
		}
		s.emit(vtime, thread, EvL3Refresh, socket, line, false)
		s.fillPrivateLocal(vtime, thread, core, line, write)
		s.stats.StallCycles += uint64(m.Lat.L3)
		return m.Lat.L3
	}
	s.stats.L3Misses++

	// Remote socket L3s, frozen image.
	for sk := 0; sk < m.Sockets; sk++ {
		if sk == socket {
			continue
		}
		if h.l3[sk].find(line) >= 0 {
			s.stats.C2CCrossSocket++
			if write {
				s.emit(vtime, thread, EvInvalOthers, core, line, false)
				s.emit(vtime, thread, EvL3Inval, sk, line, false)
			}
			s.emit(vtime, thread, EvL3Fill, socket, line, false)
			s.fillPrivateLocal(vtime, thread, core, line, write)
			s.stats.StallCycles += uint64(m.Lat.C2CCrossSocket)
			return m.Lat.C2CCrossSocket
		}
	}

	// DRAM on the homing node.
	cross := node != socket
	var cycles int
	if cross {
		s.stats.DRAMRemote++
		cycles = m.Lat.DRAMRemote
	} else {
		s.stats.DRAMLocal++
		cycles = m.Lat.DRAMLocal
	}
	if write {
		s.emit(vtime, thread, EvInvalOthers, core, line, false)
	}
	s.emit(vtime, thread, EvL3Fill, socket, line, false)
	s.fillPrivateLocal(vtime, thread, core, line, write)
	s.stats.StallCycles += uint64(cycles)
	return cycles
}

// MergeStats folds the shard's counter delta into the hierarchy and zeroes
// it. Invalidations are deliberately absent from deltas: they are counted
// by ApplyStreams when copies are actually killed.
func (s *Shard) MergeStats() {
	h := &s.h.stats
	d := &s.stats
	h.Accesses += d.Accesses
	h.Writes += d.Writes
	h.L1Hits += d.L1Hits
	h.L1Misses += d.L1Misses
	h.L2Hits += d.L2Hits
	h.L2Misses += d.L2Misses
	h.L3Hits += d.L3Hits
	h.L3Misses += d.L3Misses
	h.C2CSameSocket += d.C2CSameSocket
	h.C2CCrossSocket += d.C2CCrossSocket
	h.DRAMLocal += d.DRAMLocal
	h.DRAMRemote += d.DRAMRemote
	h.ColdMisses += d.ColdMisses
	h.CapacityMisses += d.CapacityMisses
	h.InvalidationMisses += d.InvalidationMisses
	h.StallCycles += d.StallCycles
	*d = Stats{}
}

// streamHead is one non-empty stream's entry in ApplyStreams' merge heap:
// the vtime of the stream's next event, the thread that owns the stream,
// and the position of that event.
type streamHead struct {
	vtime  uint64
	thread int
	pos    int
}

// before orders heap entries by (head vtime, thread id). Thread ids are
// unique, so this is a total order.
func (a *streamHead) before(b *streamHead) bool {
	return a.vtime < b.vtime || (a.vtime == b.vtime && a.thread < b.thread)
}

// siftDown restores the min-heap property below index i.
func siftDown(heap []streamHead, i int) {
	x := heap[i]
	for {
		c := 2*i + 1
		if c >= len(heap) {
			break
		}
		if r := c + 1; r < len(heap) && heap[r].before(&heap[c]) {
			c = r
		}
		if !heap[c].before(&x) {
			break
		}
		heap[i] = heap[c]
		i = c
	}
	heap[i] = x
}

// ApplyStreams applies one epoch's per-thread event streams to the live
// hierarchy at the barrier, in canonical (vtime, thread, position) order,
// then truncates every stream, keeping its capacity for the next epoch.
//
// Each stream is already in vtime order: its events come from the one
// worker that owns the thread's core, and a thread's clock never
// decreases inside an epoch. So a k-way merge keyed by (head vtime, thread
// id) reproduces the canonical order without sorting: it pops the thread
// whose next event comes first and applies that thread's events in place
// until another thread's head comes first. The heap lives in a buffer on
// the hierarchy, so a steady-state merge allocates nothing.
func (h *Hierarchy) ApplyStreams(streams [][]Event) {
	heap := h.mergeHeap[:0]
	for t, st := range streams {
		if len(st) > 0 {
			heap = append(heap, streamHead{vtime: st[0].VTime, thread: t})
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	for len(heap) > 1 {
		// The top thread's events apply while they come before the next
		// thread's head, the smaller child of the root.
		top := &heap[0]
		next := &heap[1]
		if len(heap) > 2 && heap[2].before(next) {
			next = &heap[2]
		}
		st := streams[top.thread]
		for {
			h.applyEvent(&st[top.pos])
			top.pos++
			if top.pos == len(st) {
				break
			}
			top.vtime = st[top.pos].VTime
			if !top.before(next) {
				break
			}
		}
		if top.pos == len(st) {
			last := len(heap) - 1
			heap[0] = heap[last]
			heap = heap[:last]
		}
		siftDown(heap, 0)
	}
	if len(heap) == 1 {
		st := streams[heap[0].thread]
		for pos := heap[0].pos; pos < len(st); pos++ {
			h.applyEvent(&st[pos])
		}
	}
	h.mergeHeap = heap[:0]
	for t := range streams {
		streams[t] = streams[t][:0]
	}
}

// applyEvent applies one deferred event to the live hierarchy, using the
// same state-transition helpers as the sequential path. Invalidation
// counting happens here, against the copies that actually existed at merge
// time.
func (h *Hierarchy) applyEvent(ev *Event) {
	switch ev.Kind {
	case EvUpgrade:
		e := h.entry(ev.Line)
		h.invalidateOthers(e, int(ev.Core), ev.Line)
		e.setOwner(int(ev.Core))
	case EvInvalOthers:
		e := h.entry(ev.Line)
		h.invalidateOthers(e, int(ev.Core), ev.Line)
	case EvEvict:
		h.evictPrivate(int(ev.Core), ev.Line, ev.Dirty)
	case EvRFO:
		ownerCore := int(ev.Core)
		h.l1[ownerCore].invalidate(ev.Line)
		h.l2[ownerCore].invalidate(ev.Line)
		h.dropCore(h.entry(ev.Line), ownerCore, true)
		h.stats.Invalidations++
	case EvDowngrade:
		ownerCore := int(ev.Core)
		h.entry(ev.Line).clearOwner()
		h.fillL3(ownerCore/h.mach.CoresPerSocket, ev.Line, true)
	case EvL3Refresh:
		// fillL3 refreshes a resident line, or, if the line was
		// back-invalidated by an earlier merge event, restores it so the
		// L3 ends the epoch holding what the worker-side decision assumed.
		h.fillL3(int(ev.Core), ev.Line, false)
	case EvL3Fill:
		h.fillL3(int(ev.Core), ev.Line, ev.Dirty)
	case EvL3Inval:
		h.l3[int(ev.Core)].invalidate(ev.Line)
	case EvFillDir:
		e := h.entry(ev.Line)
		core := int(ev.Core)
		e.sharers |= 1 << uint(core)
		e.invalidated &^= 1 << uint(core)
		e.evicted &^= 1 << uint(core)
		if ev.Dirty {
			e.setOwner(core)
		}
	}
}
