package policy

import (
	"spcd/internal/commmatrix"
	"spcd/internal/engine"
)

// HWC implements the hardware-performance-counter mapping approach the
// paper discusses in §VI-B (Azimi, Tam, Soares, Stumm — OSR 2009, the
// paper's ref. [7]): the communication pattern is estimated *indirectly*
// from PMU events counting memory accesses resolved by remote caches. The
// simulator's per-(context, supplier core) transfer counters stand in for
// those events.
//
// The paper's criticism of this approach is baked into the mechanism:
// accesses resolved by *local* caches or memory are invisible to it, and
// the supplier is known only at core granularity — when two threads share
// the supplying core, the estimate cannot tell them apart (it splits the
// credit). Both limitations reduce the accuracy of the resulting matrix
// relative to SPCD's direct page-level detection.
type HWC struct {
	estimate
	lastPair [][]uint64
}

// HWCOptions tunes the hardware-counter policy.
type HWCOptions struct {
	// EvalIntervalCycles is the counter-read + evaluation period; 0
	// selects 50 ms.
	EvalIntervalCycles uint64
	// InitialPlacement, when non-nil, is the placement the policy starts
	// from instead of the OS scatter (see SPCDOptions).
	InitialPlacement []int
}

// hwcReadCostCycles models reading one context's PMU in one sweep.
const hwcReadCostCycles = 200

// NewHWC creates the hardware-counter policy.
func NewHWC(opts HWCOptions) *HWC {
	p := &HWC{}
	p.detection = detection{name: "hwc", src: p,
		evalEvery: opts.EvalIntervalCycles, initial: opts.InitialPlacement}
	return p
}

func (p *HWC) init(env *engine.Env) error {
	p.matrix = commmatrix.New(env.NumThreads)
	env.Caches.EnablePairCounters()
	return nil
}

// sample reads the counters on the evaluation schedule.
func (p *HWC) sample(now uint64) bool {
	if now < p.nextEval {
		return false
	}
	p.readCounters()
	return true
}

// units counts accesses once the estimate holds any transfer: each
// counted transfer is one real coherence event, so the matrix is already in
// event units.
func (p *HWC) units(matrix *commmatrix.Matrix) float64 {
	if matrix.Total() > 0 {
		return float64(p.env.AS.Stats().Accesses)
	}
	return 0
}

// readCounters folds the per-(context, supplier core) transfer deltas since
// the previous read into the thread communication matrix. The supplier is
// only known at core granularity, so the credit is split across the threads
// currently on that core — the information loss inherent to the approach.
func (p *HWC) readCounters() {
	p.sweep(hwcReadCostCycles)

	cur := p.env.Caches.PairC2C()
	if cur == nil {
		return
	}
	aff := p.aff
	threadOn := make(map[int]int, p.n) // context -> thread
	for th, ctx := range aff {
		threadOn[ctx] = th
	}
	coreThreads := make(map[int][]int) // core -> threads
	for th, ctx := range aff {
		c := p.mach.CoreOf(ctx)
		coreThreads[c] = append(coreThreads[c], th)
	}
	for ctx := range cur {
		requester, running := threadOn[ctx]
		if !running {
			continue
		}
		for core := range cur[ctx] {
			delta := cur[ctx][core]
			if p.lastPair != nil {
				delta -= p.lastPair[ctx][core]
			}
			if delta == 0 {
				continue
			}
			suppliers := coreThreads[core]
			if len(suppliers) == 0 {
				continue
			}
			share := float64(delta) / float64(len(suppliers))
			for _, s := range suppliers {
				if s != requester {
					p.matrix.Add(requester, s, share)
				}
			}
		}
	}
	p.lastPair = cur
}

// Reads returns how many counter sweeps ran.
func (p *HWC) Reads() uint64 { return p.sweeps }
