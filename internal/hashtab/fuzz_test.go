package hashtab

import (
	"slices"
	"testing"
)

// model is FuzzTable's reference table: a map from bucket index to the
// region resident there, updated by the paper's rules (Table I) without the
// table's in-place bucket reuse.
type model struct {
	size    uint64
	buckets map[uint64]modelEntry
	stats   Stats
}

type modelEntry struct {
	region  uint64
	sharers []Sharer // in join order
}

// touch applies one access and returns the sharers present before it:
//   - a new region overwrites its bucket, counting an eviction if the
//     bucket held another region;
//   - a returning sharer updates its time and count in place;
//   - a new sharer is appended.
func (m *model) touch(region uint64, thread int, now uint64) (prev []Sharer) {
	m.stats.Touches++
	b := hash64(region) % m.size
	e, ok := m.buckets[b]
	if !ok || e.region != region {
		if ok {
			m.stats.Evictions++
		}
		m.buckets[b] = modelEntry{region: region, sharers: []Sharer{{Thread: thread, LastAccess: now, Count: 1}}}
		return nil
	}
	prev = slices.Clone(e.sharers)
	if i := slices.IndexFunc(e.sharers, func(s Sharer) bool { return s.Thread == thread }); i >= 0 {
		e.sharers[i].LastAccess = now
		e.sharers[i].Count++
		return prev
	}
	m.stats.NewShares++
	e.sharers = append(e.sharers, Sharer{Thread: thread, LastAccess: now, Count: 1})
	m.buckets[b] = e
	return prev
}

// resident returns the model's sharers for region, or nil if the region is
// not in its bucket.
func (m *model) resident(region uint64) []Sharer {
	if e, ok := m.buckets[hash64(region)%m.size]; ok && e.region == region {
		return e.sharers
	}
	return nil
}

// FuzzTable is the hash table's differential oracle. The first byte gives
// the table size (mod 64, plus 1). Each further byte pair is one
// Touch(region, thread, now): the first byte's low nibble picks one of 16
// regions, so buckets collide, and its high nibble the thread; the second
// byte advances the clock. After every call the table must agree with the
// model on Touch's prev, Lookup of every region, Len, the entries ForEach
// visits and their order (ascending bucket index, which the data-mapping
// pass's migration order depends on), and Stats. Touch's prev aliases the
// entry, so the caller's own record in it already holds this access; only
// the other sharers' records are compared.
func FuzzTable(f *testing.F) {
	const regions = 16
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		size := uint64(data[0])%64 + 1
		tab := New(int(size))
		m := &model{size: size, buckets: make(map[uint64]modelEntry)}
		now := uint64(0)
		for i := 1; i+1 < len(data); i += 2 {
			region, thread := uint64(data[i]&0x0f), int(data[i]>>4)
			now += uint64(data[i+1])
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("size %d, call %d, Touch(%d, %d, %d): "+format,
					append([]any{size, i / 2, region, thread, now}, args...)...)
			}

			e, prev := tab.Touch(region, thread, now)
			want := m.touch(region, thread, now)
			if e == nil || e.Region != region || e != tab.Lookup(region) {
				fail("returned entry %+v, want the resident entry", e)
			}
			if len(prev) != len(want) {
				fail("prev %+v, want %+v", prev, want)
			}
			for k := range prev {
				if prev[k].Thread != want[k].Thread || (prev[k].Thread != thread && prev[k] != want[k]) {
					fail("prev %+v, want %+v", prev, want)
				}
			}

			for r := uint64(0); r < regions; r++ {
				got, want := tab.Lookup(r), m.resident(r)
				if (got == nil) != (want == nil) || got != nil && (got.Region != r || !slices.Equal(got.Sharers, want)) {
					fail("Lookup(%d) = %+v, want sharers %+v", r, got, want)
				}
			}
			if tab.Len() != len(m.buckets) {
				fail("Len = %d, want %d", tab.Len(), len(m.buckets))
			}
			visited := make(map[uint64]bool)
			last := -1
			tab.ForEach(func(e *Entry) {
				want := m.resident(e.Region)
				if visited[e.Region] || want == nil || !slices.Equal(e.Sharers, want) {
					fail("ForEach visited region %d (again: %t) with sharers %+v, want %+v",
						e.Region, visited[e.Region], e.Sharers, want)
				}
				if b := int(hash64(e.Region) % size); b > last {
					last = b
				} else {
					fail("ForEach visited region %d in bucket %d after bucket %d, want ascending bucket order",
						e.Region, b, last)
				}
				visited[e.Region] = true
			})
			if len(visited) != len(m.buckets) {
				fail("ForEach visited %d entries, want %d", len(visited), len(m.buckets))
			}
			if tab.Stats() != m.stats {
				fail("Stats = %+v, want %+v", tab.Stats(), m.stats)
			}
		}
	})
}
