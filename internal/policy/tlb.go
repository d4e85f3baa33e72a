package policy

import (
	"sort"

	"spcd/internal/commmatrix"
	"spcd/internal/engine"
)

// TLB implements the TLB-based communication detection the paper compares
// against in §VI-B (Cruz, Diener, Navaux — IPDPS 2012, the paper's ref.
// [22]): a kernel thread periodically reads the TLB contents of every
// hardware context and counts a unit of communication between the threads
// of any two contexts whose TLBs hold the same virtual page. It runs SPCD's
// evaluate-and-migrate loop, so the two mechanisms differ only in how the
// matrix is detected.
//
// The paper notes that on x86 this mechanism would require hardware
// modifications (TLBs are not software-readable); the simulated MMU exposes
// them, which is exactly the hardware hook the authors proposed.
type TLB struct {
	estimate
	scanInterval uint64
	nextScan     uint64
}

// TLBOptions tunes the TLB policy.
type TLBOptions struct {
	// ScanIntervalCycles is the period of the TLB-comparison kernel
	// thread; 0 selects 10 ms.
	ScanIntervalCycles uint64
	// EvalIntervalCycles is the mapping-evaluation period; 0 selects 50 ms.
	EvalIntervalCycles uint64
	// InitialPlacement, when non-nil, is the placement the policy starts
	// from instead of the OS scatter (see SPCDOptions).
	InitialPlacement []int
}

// tlbScanCostCycles models the kernel work of reading and comparing one
// context's TLB in one scan.
const tlbScanCostCycles = 400

// NewTLB creates the TLB-detection policy.
func NewTLB(opts TLBOptions) *TLB {
	p := &TLB{scanInterval: opts.ScanIntervalCycles}
	p.detection = detection{name: "tlb", src: p,
		evalEvery: opts.EvalIntervalCycles, initial: opts.InitialPlacement}
	return p
}

func (p *TLB) init(env *engine.Env) error {
	p.matrix = commmatrix.New(env.NumThreads)
	if p.scanInterval == 0 {
		p.scanInterval = env.Machine.SecondsToCycles(0.010)
	}
	p.nextScan = p.scanInterval
	return nil
}

// sample scans TLBs on the scan period.
func (p *TLB) sample(now uint64) bool {
	if now < p.nextScan {
		return false
	}
	for now >= p.nextScan {
		p.nextScan += p.scanInterval
	}
	p.scan()
	return true
}

// units counts one unit per thread per scan: one TLB-overlap unit stands
// for sustained sharing over a scan period, so the per-unit access volume
// is the accesses per scan spread over the threads.
func (p *TLB) units(*commmatrix.Matrix) float64 { return float64(p.sweeps * uint64(p.n)) }

// scan compares the TLB contents of all contexts and accumulates
// communication between threads whose contexts cache the same page.
func (p *TLB) scan() {
	p.sweep(tlbScanCostCycles)

	// thread running on each context under the current placement.
	threadOn := make(map[int]int, p.n)
	for th, ctx := range p.aff {
		threadOn[ctx] = th
	}
	pages := make(map[uint64][]int) // vpn -> threads whose TLB holds it
	var buf []uint64
	for ctx := 0; ctx < p.mach.NumContexts(); ctx++ {
		th, running := threadOn[ctx]
		if !running {
			continue
		}
		buf = p.env.AS.TLBPages(ctx, buf[:0])
		for _, vpn := range buf {
			pages[vpn] = append(pages[vpn], th)
		}
	}
	// Accumulate in sorted page order so the matrix is built identically on
	// every same-seed run (map iteration order is randomized).
	vpns := make([]uint64, 0, len(pages))
	for vpn := range pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, vpn := range vpns {
		threads := pages[vpn]
		for i := 0; i < len(threads); i++ {
			for j := i + 1; j < len(threads); j++ {
				p.matrix.Add(threads[i], threads[j], 1)
			}
		}
	}
}

// Scans returns how many TLB sweeps ran.
func (p *TLB) Scans() uint64 { return p.sweeps }
