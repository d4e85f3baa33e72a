package cache

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spcd/internal/topology"
)

// numEventKinds counts the EventKinds the generator draws from.
const numEventKinds = int(EvFillDir) + 1

// tinyMachine is DefaultXeon's shape (2 sockets x 8 cores x 2 SMT) with
// caches of a handful of sets, so a small line pool overflows every level.
func tinyMachine() *topology.Machine {
	m := topology.DefaultXeon()
	m.L1 = topology.CacheGeometry{Size: 4 * 2 * 64, Assoc: 2}  // 4 sets
	m.L2 = topology.CacheGeometry{Size: 8 * 4 * 64, Assoc: 4}  // 8 sets
	m.L3 = topology.CacheGeometry{Size: 16 * 4 * 64, Assoc: 4} // 16 sets
	return m
}

// collidingLines returns a pool of lines that fall into the same few sets
// at every level: lines set+k*stride share their L1, L2 and L3 set when
// stride is a multiple of every level's set count, and set counts are
// powers of two, so the largest is. With more lines per set than any level
// has ways, applying events evicts and back-invalidates, so the order the
// merge applies them in shows in the final state.
func collidingLines(h *Hierarchy) []uint64 {
	stride := uint64(max(h.l1[0].sets, h.l2[0].sets, h.l3[0].sets))
	ways := max(h.l1[0].ways, h.l2[0].ways, h.l3[0].ways)
	var lines []uint64
	for set := uint64(0); set < 2; set++ {
		for k := 0; k < 2*ways; k++ {
			lines = append(lines, set+uint64(k)*stride)
		}
	}
	return lines
}

// genStreams draws one epoch of per-thread event streams for machine m:
// up to maxLen events per thread, vtime non-decreasing within a stream
// (steps of 0, 1 or 2, so vtimes tie within a thread and across threads),
// every EventKind, and lines from the given pool. draw(n) returns a value
// in [0, n); it is rand.Intn for seeded tests and a byte reader for
// fuzzing.
func genStreams(m *topology.Machine, lines []uint64, draw func(n int) int, threads, maxLen int) [][]Event {
	streams := make([][]Event, threads)
	for t := range streams {
		vtime := uint64(draw(4))
		for i, n := 0, draw(maxLen+1); i < n; i++ {
			vtime += uint64(draw(3))
			ev := Event{
				VTime: vtime,
				Kind:  EventKind(draw(numEventKinds)),
				Line:  lines[draw(len(lines))],
				Dirty: draw(2) == 1,
			}
			switch ev.Kind {
			case EvL3Refresh, EvL3Fill, EvL3Inval:
				ev.Core = int16(draw(m.Sockets))
			default:
				ev.Core = int16(draw(m.NumCores()))
			}
			streams[t] = append(streams[t], ev)
		}
	}
	return streams
}

// warm gives h a non-trivial starting state over collidingLines: sharers,
// dirty owners and L3 residents on both sockets, so applied events
// invalidate and evict real copies.
func warm(h *Hierarchy) {
	ctxs := h.mach.NumContexts()
	for i, line := range collidingLines(h) {
		for j := 0; j < 3; j++ {
			ctx := (i*7 + j*11) % ctxs
			h.Access(ctx, line<<h.lineShift, (i+j)%3 == 0, j%h.mach.Sockets)
		}
	}
}

// applyReference is the oracle for ApplyStreams: flatten the streams,
// stable-sort by (vtime, thread, position) and apply one event at a time.
func applyReference(h *Hierarchy, streams [][]Event) {
	type tagged struct {
		ev          Event
		thread, pos int
	}
	var flat []tagged
	for t, st := range streams {
		for i, ev := range st {
			flat = append(flat, tagged{ev, t, i})
		}
	}
	slices.SortStableFunc(flat, func(a, b tagged) int {
		if c := cmp.Compare(a.ev.VTime, b.ev.VTime); c != 0 {
			return c
		}
		if c := cmp.Compare(a.thread, b.thread); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	for i := range flat {
		h.applyEvent(&flat[i].ev)
	}
}

// diffArrays reports the first difference between two cache arrays.
func diffArrays(got, want *array) error {
	switch {
	case got.sets != want.sets || got.ways != want.ways:
		return fmt.Errorf("geometry %dx%d, want %dx%d", got.sets, got.ways, want.sets, want.ways)
	case got.clock != want.clock:
		return fmt.Errorf("LRU clock %d, want %d", got.clock, want.clock)
	case !slices.Equal(got.tags, want.tags):
		return fmt.Errorf("tags %v, want %v", got.tags, want.tags)
	case !slices.Equal(got.valid, want.valid):
		return fmt.Errorf("valid bits %v, want %v", got.valid, want.valid)
	case !slices.Equal(got.dirty, want.dirty):
		return fmt.Errorf("dirty bits %v, want %v", got.dirty, want.dirty)
	case !slices.Equal(got.stamp, want.stamp):
		return fmt.Errorf("LRU stamps %v, want %v", got.stamp, want.stamp)
	}
	return nil
}

// diffHierarchies reports the first difference in Stats, the directory,
// or any L1/L2/L3 array.
func diffHierarchies(got, want *Hierarchy) error {
	if got.stats != want.stats {
		return fmt.Errorf("stats %+v, want %+v", got.stats, want.stats)
	}
	levels := []struct {
		name      string
		got, want []*array
	}{{"L1", got.l1, want.l1}, {"L2", got.l2, want.l2}, {"L3", got.l3, want.l3}}
	for _, lv := range levels {
		for i := range lv.want {
			if err := diffArrays(lv.got[i], lv.want[i]); err != nil {
				return fmt.Errorf("%s[%d]: %v", lv.name, i, err)
			}
		}
	}
	if len(got.dir) != len(want.dir) {
		return fmt.Errorf("directory has %d chunks, want %d", len(got.dir), len(want.dir))
	}
	for c := range want.dir {
		g, w := got.dir[c], want.dir[c]
		if (g == nil) != (w == nil) {
			return fmt.Errorf("directory chunk %d allocated=%v, want %v", c, g != nil, w != nil)
		}
		if w == nil {
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				line := uint64(c)<<dirChunkBits | uint64(i)
				return fmt.Errorf("directory entry of line %#x is %+v, want %+v", line, g[i], w[i])
			}
		}
	}
	return nil
}

// restore makes dst an exact copy of src, a hierarchy of the same machine,
// reusing dst's memory: rebuilding with New would zero a fresh 512 KiB
// directory chunk for every input the fuzzer tries.
func restore(dst, src *Hierarchy) {
	levels := [][2][]*array{{dst.l1, src.l1}, {dst.l2, src.l2}, {dst.l3, src.l3}}
	for _, lv := range levels {
		for i, a := range lv[1] {
			d := lv[0][i]
			copy(d.tags, a.tags)
			copy(d.valid, a.valid)
			copy(d.dirty, a.dirty)
			copy(d.stamp, a.stamp)
			d.clock = a.clock
		}
	}
	dst.stats = src.stats
	dst.dir = slices.Grow(dst.dir[:0], len(src.dir))[:len(src.dir)]
	for c, ch := range src.dir {
		switch {
		case ch == nil:
			dst.dir[c] = nil
		case dst.dir[c] == nil:
			dst.dir[c] = new(dirChunk)
			fallthrough
		default:
			*dst.dir[c] = *ch
		}
	}
}

// applyChecker runs the differential check on reused hierarchies: base is
// the warmed starting state, got and want are reset to it for every input.
// Streams draw their lines from base's colliding pool.
type applyChecker struct {
	m               *topology.Machine
	lines           []uint64
	base, got, want *Hierarchy
}

func newApplyChecker(m *topology.Machine) *applyChecker {
	c := &applyChecker{m: m, base: New(m), got: New(m), want: New(m)}
	c.lines = collidingLines(c.base)
	warm(c.base)
	return c
}

// gen draws one epoch of streams over the checker's line pool.
func (c *applyChecker) gen(draw func(n int) int, threads int) [][]Event {
	return genStreams(c.m, c.lines, draw, threads, 40)
}

// check applies streams through ApplyStreams and through the reference,
// both from the warmed state, and compares the results. It also checks that
// ApplyStreams truncates every stream.
func (c *applyChecker) check(t *testing.T, streams [][]Event) {
	t.Helper()
	restore(c.got, c.base)
	restore(c.want, c.base)
	applyReference(c.want, streams)
	c.got.ApplyStreams(streams)
	if err := diffHierarchies(c.got, c.want); err != nil {
		t.Fatalf("merged apply differs from the sorted reference: %v", err)
	}
	for th, st := range streams {
		if len(st) != 0 {
			t.Fatalf("stream of thread %d holds %d events after the merge, want 0", th, len(st))
		}
	}
}

// TestApplyStreamsMatchesSortedReference is the differential test of the
// barrier merge: on seeded random streams, merging the per-thread streams
// leaves the hierarchy exactly as sorting all events by (vtime, thread,
// position) and applying them one at a time does.
func TestApplyStreamsMatchesSortedReference(t *testing.T) {
	m := tinyMachine()
	c := newApplyChecker(m)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		threads := 1 + rng.Intn(m.NumContexts())
		streams := c.gen(rng.Intn, threads)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c.check(t, streams)
		})
	}
}

// FuzzApplyStreams drives the same differential check from fuzzer bytes:
// every byte is one draw of the stream generator, so the fuzzer steers
// thread counts, stream lengths, vtime ties, kinds and lines directly. The
// seed corpus is in testdata/fuzz/FuzzApplyStreams.
func FuzzApplyStreams(f *testing.F) {
	m := tinyMachine()
	c := newApplyChecker(m)
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		threads := 1 + draw(m.NumContexts())
		c.check(t, c.gen(draw, threads))
	})
}

// TestApplyStreamsAllocFree is the allocation gate for the barrier merge:
// once one epoch has grown the streams, the merge heap and the directory
// chunks, refilling the streams and merging them allocates nothing.
func TestApplyStreamsAllocFree(t *testing.T) {
	m := topology.DefaultXeon()
	h := New(m)
	warm(h)
	rng := rand.New(rand.NewSource(3))
	epoch := genStreams(m, collidingLines(h), rng.Intn, m.NumContexts(), 64)
	streams := make([][]Event, len(epoch))
	refillAndMerge := func() {
		for t := range epoch {
			streams[t] = append(streams[t], epoch[t]...)
		}
		h.ApplyStreams(streams)
	}
	refillAndMerge()
	if n := testing.AllocsPerRun(50, refillAndMerge); n != 0 {
		t.Errorf("steady-state ApplyStreams allocates %.1f objects per epoch, want 0", n)
	}
}

// BenchmarkApplyStreams measures one barrier merge of a 32-thread epoch,
// including the refill of the streams the workers would have produced.
// Lines spread over a footprint a few times the L2, as in an NPB epoch,
// rather than the colliding pool the correctness tests use.
func BenchmarkApplyStreams(b *testing.B) {
	m := topology.DefaultXeon()
	h := New(m)
	lines := make([]uint64, 1<<16)
	for i := range lines {
		lines[i] = uint64(i)
	}
	rng := rand.New(rand.NewSource(1))
	epoch := genStreams(m, lines, rng.Intn, m.NumContexts(), 1024)
	events := 0
	for _, st := range epoch {
		events += len(st)
	}
	streams := make([][]Event, len(epoch))
	refillAndMerge := func() {
		for t := range epoch {
			streams[t] = append(streams[t], epoch[t]...)
		}
		h.ApplyStreams(streams)
	}
	refillAndMerge()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refillAndMerge()
	}
	b.ReportMetric(float64(events), "events/op")
}
