// Package hashtab implements the fixed-size hash table the SPCD mechanism
// uses to track shared memory regions (paper §III-B1, Fig. 4).
//
// Each element stores the address of a memory region (at the chosen
// detection granularity, by default the page size), the list of threads that
// accessed it (the "sharers"), and the timestamp of the last access by each
// sharer. Like the kernel implementation, the table has a fixed number of
// elements chosen at creation (the paper uses 256,000, covering 1 GByte of
// virtual address space at 4 KByte granularity), hashes keys with the Linux
// golden-ratio hash_64 function, and resolves collisions by overwriting the
// previous entry to keep the fault-handler fast path O(1).
//
// The buckets are int32 positions into a list of entries that grows when a
// bucket is first used: a run still has all 256,000 buckets, but only the
// buckets it uses get an Entry, and the 1 MB bucket array holds no pointers
// for the garbage collector to scan.
package hashtab

import (
	"fmt"
	"math"
	"unsafe"
)

// DefaultSize is the number of elements used in the paper (Table I).
const DefaultSize = 256000

// MaxSize is the largest table New accepts: a bucket holds an int32
// position.
const MaxSize = math.MaxInt32

// hash64 is the Linux kernel's hash_64: a multiplicative hash using the
// 64-bit golden ratio constant (GOLDEN_RATIO_64 in hash.h). The kernel keeps
// the *high* bits of the product (it shifts right by 64-bits); since our
// table size is not a power of two we fold the high half into the low half
// before reducing modulo the table size.
func hash64(key uint64) uint64 {
	h := key * 0x61C8864680B583EB
	return h ^ (h >> 32)
}

// Sharer records one thread's participation in a region.
type Sharer struct {
	Thread     int    // application thread ID
	LastAccess uint64 // simulated time (cycles) of the thread's last fault here
	Count      uint32 // faults by this thread on this region
}

// Entry is one element of the table: a memory region and its sharers. An
// entry is valid exactly when it has a sharer: Touch always leaves one, and
// Reset truncates the list.
type Entry struct {
	Region  uint64 // region address (aligned to the detection granularity)
	Sharers []Sharer
}

// Sharer returns a pointer to the sharer record for thread, or nil.
func (e *Entry) Sharer(thread int) *Sharer {
	for i := range e.Sharers {
		if e.Sharers[i].Thread == thread {
			return &e.Sharers[i]
		}
	}
	return nil
}

// Stats counts table activity, used for the overhead analysis (§V-F).
type Stats struct {
	Touches   uint64 // total Touch operations
	Evictions uint64 // entries overwritten due to a hash collision
	NewShares uint64 // times a second (or later) thread joined a region
}

// Table is the fixed-size, overwrite-on-collision hash table. A bucket
// holds 1 + the position of its entry in entries, or 0 if it was never
// used, so the bucket array is pointer-free and only the buckets a run
// touches cost an Entry.
type Table struct {
	buckets []int32
	entries []Entry
	stats   Stats
}

// New creates a table with the given number of elements. It panics if size
// is not positive, since a zero-sized table cannot store anything, or above
// MaxSize.
func New(size int) *Table {
	if size <= 0 || size > MaxSize {
		panic(fmt.Sprintf("hashtab: invalid size %d", size))
	}
	return &Table{buckets: make([]int32, size)}
}

// Size returns the number of elements the table can hold.
func (t *Table) Size() int { return len(t.buckets) }

// Stats returns a copy of the activity counters.
func (t *Table) Stats() Stats { return t.stats }

func (t *Table) bucket(region uint64) *int32 {
	return &t.buckets[hash64(region)%uint64(len(t.buckets))]
}

// Lookup returns the entry for region, or nil if the region is not resident
// (never inserted, or overwritten by a colliding region).
func (t *Table) Lookup(region uint64) *Entry {
	b := *t.bucket(region)
	if b == 0 {
		return nil
	}
	if e := &t.entries[b-1]; len(e.Sharers) > 0 && e.Region == region {
		return e
	}
	return nil
}

// Touch records an access by thread to region at time now and returns the
// entry along with the sharers present *before* this access (so the caller
// can turn them into communication events). If the bucket held a different
// region, that entry is overwritten in place, mirroring the kernel module's
// collision policy; a bucket's first use appends its entry.
//
// The returned entry stays valid only until the next Touch, which may grow
// the entries and move them. The returned prev slice aliases the entry and
// must be consumed before the next Touch of the same region.
func (t *Table) Touch(region uint64, thread int, now uint64) (e *Entry, prev []Sharer) {
	t.stats.Touches++
	b := t.bucket(region)
	if *b == 0 {
		t.entries = append(t.entries, Entry{})
		*b = int32(len(t.entries))
	}
	e = &t.entries[*b-1]
	if len(e.Sharers) == 0 || e.Region != region {
		if len(e.Sharers) > 0 {
			t.stats.Evictions++
		}
		e.Region = region
		e.Sharers = append(e.Sharers[:0], Sharer{Thread: thread, LastAccess: now, Count: 1})
		return e, nil
	}
	prev = e.Sharers
	if s := e.Sharer(thread); s != nil {
		s.LastAccess = now
		s.Count++
		return e, prev
	}
	t.stats.NewShares++
	e.Sharers = append(e.Sharers, Sharer{Thread: thread, LastAccess: now, Count: 1})
	return e, e.Sharers[:len(e.Sharers)-1]
}

// ForEach calls fn for every valid entry, in bucket order. The order is
// part of the simulation: the data-mapping pass migrates pages in it. The
// entry must not be retained beyond the call; Touch may overwrite it.
func (t *Table) ForEach(fn func(*Entry)) {
	for _, b := range t.buckets {
		if b != 0 && len(t.entries[b-1].Sharers) > 0 {
			fn(&t.entries[b-1])
		}
	}
}

// Len returns the number of valid entries currently resident.
func (t *Table) Len() int {
	n := 0
	for i := range t.entries {
		if len(t.entries[i].Sharers) > 0 {
			n++
		}
	}
	return n
}

// Reset clears all entries but keeps the allocated entries, their sharer
// lists and the statistics.
func (t *Table) Reset() {
	for i := range t.entries {
		t.entries[i].Sharers = t.entries[i].Sharers[:0]
	}
}

// MemoryBytes reports the memory the table has allocated, for the fixed
// memory overhead of the mechanism (§III-C4): the buckets, the entries and
// their sharer records.
func (t *Table) MemoryBytes() int {
	bytes := len(t.buckets)*int(unsafe.Sizeof(int32(0))) + cap(t.entries)*int(unsafe.Sizeof(Entry{}))
	for i := range t.entries {
		bytes += cap(t.entries[i].Sharers) * int(unsafe.Sizeof(Sharer{}))
	}
	return bytes
}
