package vm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"spcd/internal/topology"
)

// fuzzPages are the virtual pages the differential oracle touches: two
// groups of eight whose TLB slots collide pairwise (vpn and vpn+tlbSize),
// so accesses also evict each other's translations.
var fuzzPages = func() []uint64 {
	var out []uint64
	for i := uint64(0); i < 8; i++ {
		out = append(out, i, tlbSize+i)
	}
	return out
}()

// saltSource is a SharerSource stub standing in for the cache directory: it
// reports a salted hash of the physical frame asked about as the set of
// cores caching it, so the model can predict it from the frame alone.
type saltSource struct {
	salt  uint32
	cores int
	shift uint
}

func (s saltSource) PageSharerCores(addr, size uint64) uint32 {
	return s.mask(int64(addr >> s.shift))
}

func (s saltSource) mask(frame int64) uint32 {
	return (uint32(frame)*0x9E3779B1 ^ s.salt) >> (32 - s.cores)
}

// modelPage is a mapped page in the model.
type modelPage struct {
	frame   int64
	node    int
	present bool
}

// vmModel is the differential oracle's reference MMU: a map of mapped pages
// and one slot -> page map per context TLB, updated by the documented rules
// without the page-table leaves, the cached pte pointers or the resident
// list.
type vmModel struct {
	m         *topology.Machine
	src       saltSource
	ipi       bool
	pages     map[uint64]*modelPage
	tlbs      []map[uint64]uint64 // per context: slot -> vpn
	nextFrame int64
	nodePages []uint64
	stats     Stats
	events    uint64
	sharers   uint64
}

// access applies one translation and returns the expected result: whether
// the TLB-hit fast path serves it, and otherwise the full path's
// Translation and delivered fault.
func (md *vmModel) access(thread, ctx int, vpn uint64, write bool, now uint64) (hit bool, tr Translation, f *Fault) {
	md.stats.Accesses++
	p := md.pages[vpn]
	if v, ok := md.tlbs[ctx][vpn%tlbSize]; ok && v == vpn && p != nil && p.present {
		md.stats.TLBHits++
		return true, Translation{Frame: p.frame, Node: p.node}, nil
	}
	md.stats.TLBMisses++
	costs := DefaultCosts()
	tr.Cycles = costs.TLBMiss
	addr := vpn << md.src.shift
	switch {
	case p == nil:
		p = &modelPage{frame: md.nextFrame, node: md.m.NodeOf(ctx), present: true}
		md.nextFrame++
		md.pages[vpn] = p
		md.nodePages[p.node]++
		md.stats.FirstTouchFaults++
		tr.Cycles += costs.FirstTouchFault
		f = &Fault{Thread: thread, Context: ctx, Page: vpn, Addr: addr, Write: write, Type: FaultFirstTouch, Time: now}
	case !p.present:
		p.present = true
		md.stats.InducedFaults++
		tr.Cycles += costs.InducedFault
		f = &Fault{Thread: thread, Context: ctx, Page: vpn, Addr: addr, Write: write, Type: FaultInduced, Time: now}
	}
	md.tlbs[ctx][vpn%tlbSize] = vpn
	tr.Frame, tr.Node, tr.Faulted = p.frame, p.node, f != nil
	return false, tr, f
}

// invalidate drops vpn from every context's TLB and charges the shootdown
// of the page's old frame: its sharers are the cores whose TLB held the
// translation, united with the directory stub's cores.
func (md *vmModel) invalidate(vpn uint64, frame int64) {
	var cores uint32
	for ctx, tlb := range md.tlbs {
		if v, ok := tlb[vpn%tlbSize]; ok && v == vpn {
			delete(tlb, vpn%tlbSize)
			md.stats.Shootdowns++
			cores |= 1 << md.m.CoreOf(ctx)
		}
	}
	if md.ipi {
		md.events++
		md.sharers += uint64(bits.OnesCount32(cores | md.src.mask(frame)))
	}
}

func (md *vmModel) clear(vpn uint64) bool {
	p := md.pages[vpn]
	if p == nil || !p.present {
		return false
	}
	p.present = false
	md.stats.PresentCleared++
	md.invalidate(vpn, p.frame)
	return true
}

func (md *vmModel) migrate(vpn uint64, node int) MigrateOutcome {
	p := md.pages[vpn]
	if p == nil || p.node == node {
		return MigrateNoop
	}
	old := p.frame
	md.nodePages[p.node]--
	md.nodePages[node]++
	p.node, p.frame = node, md.nextFrame
	md.nextFrame++
	md.stats.PageMigrations++
	md.invalidate(vpn, old)
	return MigrateOK
}

func (md *vmModel) unmap(vpn uint64) bool {
	p := md.pages[vpn]
	if p == nil {
		return false
	}
	delete(md.pages, vpn)
	md.nodePages[p.node]--
	md.invalidate(vpn, p.frame)
	return true
}

// check compares every observable of as with the model.
func (md *vmModel) check(as *AddressSpace) error {
	resident := 0
	for _, vpn := range fuzzPages {
		p := md.pages[vpn]
		present, node := p != nil && p.present, -1
		if p != nil {
			node = p.node
		}
		if present {
			resident++
		}
		if got := as.Present(vpn); got != present {
			return fmt.Errorf("Present(%d) = %v, want %v", vpn, got, present)
		}
		if got := as.NodeOfPage(vpn); got != node {
			return fmt.Errorf("NodeOfPage(%d) = %d, want %d", vpn, got, node)
		}
	}
	if got := as.ResidentPages(); got != resident {
		return fmt.Errorf("ResidentPages = %d, want %d", got, resident)
	}
	if got := as.NodePages(); !slices.Equal(got, md.nodePages) {
		return fmt.Errorf("NodePages = %v, want %v", got, md.nodePages)
	}
	st := as.Stats()
	if st != md.stats {
		return fmt.Errorf("Stats = %+v, want %+v", st, md.stats)
	}
	if st.TLBHits+st.TLBMisses != st.Accesses {
		return fmt.Errorf("TLBHits %d + TLBMisses %d != Accesses %d", st.TLBHits, st.TLBMisses, st.Accesses)
	}
	for ctx, tlb := range md.tlbs {
		got := as.TLBPages(ctx, nil)
		for _, vpn := range got {
			if !as.Present(vpn) {
				return fmt.Errorf("context %d TLB holds page %d, which is not present", ctx, vpn)
			}
		}
		slots := make([]uint64, 0, len(tlb))
		for slot := range tlb {
			slots = append(slots, slot)
		}
		slices.Sort(slots)
		want := make([]uint64, len(slots))
		for i, slot := range slots {
			want[i] = tlb[slot]
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("context %d TLBPages = %v, want %v", ctx, got, want)
		}
	}
	if sd := as.ShootdownStats(); sd.Events != md.events || sd.SharersTotal != md.sharers {
		return fmt.Errorf("shootdown events/sharers = %d/%d, want %d/%d",
			sd.Events, sd.SharersTotal, md.events, md.sharers)
	}
	return nil
}

// runAddressSpace drives ops draw-chosen operations through a fresh address
// space on a 2-socket, 2-core, 2-way SMT machine and checks it against the
// model after every one. The first draw arms the IPI shootdown mode and
// salts the directory stub.
func runAddressSpace(draw func(n int) int, ops int) error {
	m, err := topology.New(2, 2, 2)
	if err != nil {
		return err
	}
	ipi := draw(2) == 1
	if ipi {
		m.Shootdown = topology.ShootdownIPI
	}
	as := NewAddressSpace(m)
	src := saltSource{salt: uint32(draw(256)) << 24, cores: m.NumCores(), shift: as.PageShift()}
	as.SetSharerSource(src)
	var faults []Fault
	as.AddHandler(func(f Fault) { faults = append(faults, f) })
	md := &vmModel{m: m, src: src, ipi: ipi, pages: make(map[uint64]*modelPage),
		tlbs: make([]map[uint64]uint64, m.NumContexts()), nodePages: make([]uint64, m.NumNodes())}
	for i := range md.tlbs {
		md.tlbs[i] = make(map[uint64]uint64)
	}
	for op := 0; op < ops; op++ {
		kind, ctx, vpn := draw(8), draw(m.NumContexts()), fuzzPages[draw(len(fuzzPages))]
		now := uint64(op + 1)
		var desc string
		switch {
		case kind < 4: // an access, the way the engine loops perform it
			thread, write := ctx^kind, kind&1 == 1
			desc = fmt.Sprintf("access(thread %d, ctx %d, page %d, write %v)", thread, ctx, vpn, write)
			wantHit, want, wantFault := md.access(thread, ctx, vpn, write, now)
			faults = faults[:0]
			frame, node, hit := as.AccessFast(ctx, vpn<<as.PageShift())
			got := Translation{Frame: frame, Node: node}
			if !hit {
				got = as.Access(thread, ctx, vpn<<as.PageShift(), write, now)
			}
			if hit != wantHit || got != want {
				return fmt.Errorf("op %d %s: hit %v, %+v; want hit %v, %+v", op, desc, hit, got, wantHit, want)
			}
			if wantFault == nil && len(faults) != 0 || wantFault != nil && (len(faults) != 1 || faults[0] != *wantFault) {
				return fmt.Errorf("op %d %s: delivered faults %+v, want %+v", op, desc, faults, wantFault)
			}
		case kind < 6:
			desc = fmt.Sprintf("ClearPresentAt(%d)", vpn)
			if got, want := as.ClearPresentAt(vpn, now), md.clear(vpn); got != want {
				return fmt.Errorf("op %d %s = %v, want %v", op, desc, got, want)
			}
		case kind == 6:
			node := ctx % m.NumNodes()
			desc = fmt.Sprintf("TryMigratePageAt(%d, node %d)", vpn, node)
			if got, want := as.TryMigratePageAt(vpn, node, now), md.migrate(vpn, node); got != want {
				return fmt.Errorf("op %d %s = %v, want %v", op, desc, got, want)
			}
		default:
			desc = fmt.Sprintf("Unmap(%d)", vpn)
			if got, want := as.Unmap(vpn, now), md.unmap(vpn); got != want {
				return fmt.Errorf("op %d %s = %v, want %v", op, desc, got, want)
			}
		}
		if err := md.check(as); err != nil {
			return fmt.Errorf("op %d after %s: %v", op, desc, err)
		}
	}
	return nil
}

// fuzzAddressSpaceOps bounds an input's operations (three bytes each) so
// the minimizer stays cheap on long inputs.
const fuzzAddressSpaceOps = 64

// FuzzAddressSpace is the vm's differential oracle: fuzzer-chosen
// sequences of accesses (AccessFast, then Access on a miss, the way the
// engine performs them), present-bit clears, page migrations and unmaps
// against a map model of pages and TLBs. After every operation the address
// space must agree with the model on Present, NodeOfPage, ResidentPages,
// NodePages, Stats, every context's TLB contents and, with IPI shootdowns
// armed, the shootdown count and sharer total. The seed corpus is in
// testdata/fuzz/FuzzAddressSpace.
func FuzzAddressSpace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runAddressSpace(byteDraw(data), min(len(data)/3, fuzzAddressSpaceOps)); err != nil {
			t.Fatal(err)
		}
	})
}

// byteDraw returns a draw function over fuzzer bytes: each call consumes
// one byte (0 once they run out) and reduces it modulo n.
func byteDraw(data []byte) func(n int) int {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
}

// TestAddressSpaceMatchesModel runs FuzzAddressSpace's checks on seeded
// random operation sequences, longer than the corpus entries.
func TestAddressSpaceMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if err := runAddressSpace(rng.Intn, 400); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
