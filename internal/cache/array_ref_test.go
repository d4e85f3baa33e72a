package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spcd/internal/topology"
)

// refArray is the reference set-associative array for the victim rule:
// explicit valid bits, 64-bit tags, stamps drawn from one strictly
// increasing 64-bit clock, and the fixed victim rule "first invalid slot,
// else lowest stamp in slot order". It is the straightforward form of what
// array encodes more compactly (32-bit line+1 tags, stamp 0 for an empty
// slot, 32-bit stamps renumbered when the clock would wrap).
type refArray struct {
	sets, ways int
	tags       []uint64
	valid      []bool
	dirty      []bool
	stamp      []uint64
	clock      uint64
}

func newRefArray(sets, ways int) *refArray {
	n := sets * ways
	return &refArray{
		sets:  sets,
		ways:  ways,
		tags:  make([]uint64, n),
		valid: make([]bool, n),
		dirty: make([]bool, n),
		stamp: make([]uint64, n),
	}
}

func (r *refArray) setBase(line uint64) int { return int(line%uint64(r.sets)) * r.ways }

func (r *refArray) find(line uint64) int {
	base := r.setBase(line)
	for i := base; i < base+r.ways; i++ {
		if r.valid[i] && r.tags[i] == line {
			return i
		}
	}
	return -1
}

func (r *refArray) touch(i int) {
	r.clock++
	r.stamp[i] = r.clock
}

func (r *refArray) insert(line uint64, dirty bool) (evicted uint64, evictedDirty, hadEviction bool) {
	base := r.setBase(line)
	victim := base
	for i := base; i < base+r.ways; i++ {
		if !r.valid[i] {
			victim = i
			break
		}
		if r.stamp[i] < r.stamp[victim] {
			victim = i
		}
	}
	if r.valid[victim] {
		evicted, evictedDirty, hadEviction = r.tags[victim], r.dirty[victim], true
	}
	r.tags[victim] = line
	r.valid[victim] = true
	r.dirty[victim] = dirty
	r.touch(victim)
	return evicted, evictedDirty, hadEviction
}

func (r *refArray) invalidate(line uint64) (wasDirty, was bool) {
	if i := r.find(line); i >= 0 {
		r.valid[i] = false
		return r.dirty[i], true
	}
	return false, false
}

// TestArrayMatchesReference drives seeded random operation sequences
// through array and refArray side by side: find (with an LRU refresh on a
// hit), marking a found line dirty, insert of an absent line, and
// invalidate. Every found slot, evicted line, evicted-dirty flag, eviction
// flag and invalidation result must agree. The line pool is three times
// the array's capacity, so sets fill, evict and refill with holes left by
// invalidations. 3x5 has a set count that is not a power of two, so it
// takes the modulo set-index path.
//
// Each geometry also runs from a clock 7,000 ticks below 2^32, so the
// array's 32-bit clock wraps and renumbers its stamps while the
// reference's 64-bit clock runs on, and over a line pool that ends at the
// largest taggable line, MaxLines-1.
func TestArrayMatchesReference(t *testing.T) {
	geoms := []struct{ sets, ways int }{{4, 2}, {8, 4}, {16, 20}, {3, 5}}
	variants := []struct {
		name      string
		wrap, top bool
	}{{"", false, false}, {"-wrap", true, false}, {"-top", false, true}}
	for _, g := range geoms {
		for _, v := range variants {
			t.Run(fmt.Sprintf("%dx%d%s", g.sets, g.ways, v.name), func(t *testing.T) {
				a := newArray(topology.CacheGeometry{Size: g.sets * g.ways * 64, Assoc: g.ways}, 64)
				if a.sets != g.sets || a.ways != g.ways {
					t.Fatalf("newArray built %dx%d, want %dx%d", a.sets, a.ways, g.sets, g.ways)
				}
				r := newRefArray(g.sets, g.ways)
				if v.wrap {
					a.clock, r.clock = math.MaxUint32-7000, math.MaxUint32-7000
				}
				pool := 3 * g.sets * g.ways
				first := uint64(0)
				if v.top {
					first = MaxLines - uint64(pool)
				}
				compareArrays(t, a, r, first, pool, int64(g.sets*100+g.ways))
				if v.wrap && r.clock <= math.MaxUint32 {
					t.Fatalf("the clock ran %d ticks and did not pass 2^32-1: no renumber was exercised", r.clock-(math.MaxUint32-7000))
				}
			})
		}
	}
}

// compareArrays runs 50,000 seeded operations on lines first..first+pool-1
// through a and r, failing at the first disagreement.
func compareArrays(t *testing.T, a *array, r *refArray, first uint64, pool int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for op := 0; op < 50_000; op++ {
		line := first + uint64(rng.Intn(pool))
		switch k := rng.Intn(8); {
		case k < 4: // find + touch, dirtying some hits
			got, want := a.find(line), r.find(line)
			if got != want {
				t.Fatalf("op %d: find(%d) = %d, reference %d", op, line, got, want)
			}
			if got >= 0 {
				a.touch(got)
				r.touch(want)
				if k == 0 {
					a.setDirty(got)
					r.dirty[want] = true
				}
			}
		case k < 7: // insert of an absent line
			if r.find(line) >= 0 {
				continue
			}
			dirty := rng.Intn(2) == 0
			ev, evDirty, had := a.insert(line, dirty)
			rev, revDirty, rhad := r.insert(line, dirty)
			if had != rhad || evDirty != revDirty || (had && ev != rev) {
				t.Fatalf("op %d: insert(%d) evicted (%d, dirty %v, had %v), reference (%d, dirty %v, had %v)",
					op, line, ev, evDirty, had, rev, revDirty, rhad)
			}
		default:
			dirty, was := a.invalidate(line)
			rdirty, rwas := r.invalidate(line)
			if dirty != rdirty || was != rwas {
				t.Fatalf("op %d: invalidate(%d) = (dirty %v, was %v), reference (dirty %v, was %v)",
					op, line, dirty, was, rdirty, rwas)
			}
		}
	}
}
