package hashtab

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestTouchFirstAccess(t *testing.T) {
	tab := New(64)
	e, prev := tab.Touch(0x1000, 3, 100)
	if e == nil {
		t.Fatal("Touch returned nil entry")
	}
	if prev != nil {
		t.Errorf("first access should have no previous sharers, got %v", prev)
	}
	if e.Region != 0x1000 {
		t.Errorf("Region = %#x", e.Region)
	}
	s := e.Sharer(3)
	if s == nil || s.LastAccess != 100 {
		t.Errorf("sharer = %+v", s)
	}
}

func TestTouchSecondThreadReportsPrevSharers(t *testing.T) {
	tab := New(64)
	tab.Touch(0x2000, 0, 10)
	_, prev := tab.Touch(0x2000, 1, 20)
	if len(prev) != 1 || prev[0].Thread != 0 || prev[0].LastAccess != 10 {
		t.Fatalf("prev = %v, want [{0 10}]", prev)
	}
	e := tab.Lookup(0x2000)
	if e == nil || len(e.Sharers) != 2 {
		t.Fatalf("entry after two sharers = %+v", e)
	}
	if tab.Stats().NewShares != 1 {
		t.Errorf("NewShares = %d, want 1", tab.Stats().NewShares)
	}
}

func TestTouchSameThreadUpdatesTimestamp(t *testing.T) {
	tab := New(64)
	tab.Touch(0x3000, 2, 5)
	e, prev := tab.Touch(0x3000, 2, 50)
	if e.Sharer(2).LastAccess != 50 {
		t.Errorf("LastAccess = %d, want 50", e.Sharer(2).LastAccess)
	}
	// prev includes the thread itself; callers filter by thread ID.
	if len(prev) != 1 {
		t.Errorf("prev = %v", prev)
	}
	if len(e.Sharers) != 1 {
		t.Errorf("sharer duplicated: %v", e.Sharers)
	}
}

func TestLookupMiss(t *testing.T) {
	tab := New(16)
	if tab.Lookup(0xdead000) != nil {
		t.Error("Lookup on empty table should return nil")
	}
	tab.Touch(0x1000, 0, 1)
	if tab.Lookup(0x9999000) != nil && tab.Lookup(0x9999000).Region != 0x9999000 {
		t.Error("Lookup must not return a different region's entry")
	}
}

func TestCollisionOverwrites(t *testing.T) {
	tab := New(1) // every key collides
	tab.Touch(0x1000, 0, 1)
	tab.Touch(0x2000, 1, 2)
	if tab.Lookup(0x1000) != nil {
		t.Error("colliding entry should have been overwritten")
	}
	e := tab.Lookup(0x2000)
	if e == nil || len(e.Sharers) != 1 || e.Sharers[0].Thread != 1 {
		t.Fatalf("entry = %+v", e)
	}
	if tab.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", tab.Stats().Evictions)
	}
}

func TestLenAndReset(t *testing.T) {
	tab := New(1024)
	for i := uint64(0); i < 100; i++ {
		tab.Touch(i*4096, int(i%4), i)
	}
	if n := tab.Len(); n == 0 || n > 100 {
		t.Errorf("Len = %d, want in (0, 100]", n)
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Errorf("Len after Reset = %d", tab.Len())
	}
	if tab.Lookup(0) != nil {
		t.Error("Lookup after Reset should miss")
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

func TestDefaultSizeMatchesPaper(t *testing.T) {
	if DefaultSize != 256000 {
		t.Errorf("DefaultSize = %d, want 256000 (Table I)", DefaultSize)
	}
}

// TestNewFootprint is the memory gate for the detector's table: every spcd
// run builds one, so New may allocate 4 bytes per bucket, with a stated
// slack of 1% for the Table struct. Entries cost memory only once a run
// uses their bucket.
func TestNewFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := New(DefaultSize)
	runtime.ReadMemStats(&after)
	budget := 4 * DefaultSize
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(budget+budget/100); got > limit {
		t.Errorf("New(%d) allocated %d bytes, want at most %d (4 bytes per bucket and 1%% slack)",
			DefaultSize, got, limit)
	}
	if got := tab.MemoryBytes(); got != budget {
		t.Errorf("MemoryBytes of an unused table = %d, want %d", got, budget)
	}
}

func TestMemoryBytesGrows(t *testing.T) {
	tab := New(1000)
	base := tab.MemoryBytes()
	for i := uint64(0); i < 500; i++ {
		tab.Touch(i*4096, 0, 1)
		tab.Touch(i*4096, 1, 2)
	}
	if tab.MemoryBytes() <= base {
		t.Error("MemoryBytes should grow as sharer lists fill")
	}
}

// Property: after touching a region with k distinct threads (no collisions
// possible because we use one region), the entry has exactly k sharers and
// each sharer's timestamp equals its latest touch.
func TestSharerListProperty(t *testing.T) {
	f := func(threads []uint8) bool {
		tab := New(8)
		last := map[int]uint64{}
		for i, raw := range threads {
			th := int(raw % 16)
			now := uint64(i + 1)
			tab.Touch(0x42000, th, now)
			last[th] = now
		}
		if len(threads) == 0 {
			return tab.Lookup(0x42000) == nil
		}
		e := tab.Lookup(0x42000)
		if e == nil || len(e.Sharers) != len(last) {
			return false
		}
		for th, ts := range last {
			s := e.Sharer(th)
			if s == nil || s.LastAccess != ts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Lookup never returns an entry for a different region.
func TestLookupConsistencyProperty(t *testing.T) {
	f := func(keys []uint32, probe uint32) bool {
		tab := New(32)
		for i, k := range keys {
			tab.Touch(uint64(k)<<12, i%4, uint64(i+1))
		}
		e := tab.Lookup(uint64(probe) << 12)
		return e == nil || e.Region == uint64(probe)<<12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHash64Spreads(t *testing.T) {
	// Sequential page addresses should spread across buckets rather than
	// clustering, otherwise the overwrite policy would thrash.
	tab := New(256)
	for i := uint64(0); i < 256; i++ {
		tab.Touch(i*4096, 0, 1)
	}
	if n := tab.Len(); n < 150 {
		t.Errorf("only %d of 256 sequential pages resident; hash clusters badly", n)
	}
}
