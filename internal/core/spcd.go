// Package core implements the paper's primary contribution: Shared Pages
// Communication Detection (SPCD, §III). The Detector consumes the page-fault
// stream of a parallel application, marks memory regions touched by more
// than one thread as shared, and accumulates the communication matrix. The
// Sampler plays the role of the kernel thread of §III-B2: it wakes at a
// fixed interval, clears the present bit of a random sample of resident
// pages, and dynamically adjusts the sample size so that the induced faults
// stay near a chosen fraction of all faults (10% in the paper).
//
// The detector is deliberately ignorant of the workload and the scheduler:
// it sees only vm.Fault events, exactly like the kernel module sees the
// hardware fault stream.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"spcd/internal/commmatrix"
	"spcd/internal/hashtab"
	"spcd/internal/topology"
	"spcd/internal/vm"
)

// Config parameterizes the SPCD mechanism. The defaults reproduce Table I.
type Config struct {
	NumThreads int // application threads being observed

	// Granularity is the detection granularity in bytes (§III-C1). It
	// defaults to the page size but may be smaller (finer detection,
	// larger table pressure) or larger.
	Granularity int

	// TableSize is the number of hash-table elements (256,000 in Table I).
	TableSize int

	// SamplerInterval is the kernel-thread wakeup period in cycles
	// (10 ms in the paper).
	SamplerInterval uint64

	// TargetExtraFaultRatio is the fraction of total page faults that
	// should be induced faults (0.10 in the paper). The sampler measures
	// the application's natural (demand-paging) fault rate over its
	// wakeup window and budgets induced faults accordingly.
	TargetExtraFaultRatio float64

	// MinBatch is a liveness floor: the sampler clears at least this many
	// pages per wakeup even when the application no longer faults
	// naturally, so that communication detection (and with it phase-change
	// detection, Fig. 6) continues for the whole run. A purely
	// ratio-driven controller would starve once the footprint is fully
	// mapped. The floor's overhead is MinBatch faults per interval
	// (~0.1% of runtime at the defaults); see DESIGN.md.
	MinBatch int

	// TimeWindow bounds temporal false communication (§III-C2): a fault
	// only counts as communication with sharers whose last access is at
	// most TimeWindow cycles old. Zero disables the filter.
	TimeWindow uint64

	// DetectionCostCycles models the fault-handler work per detection
	// (hash lookup and matrix update); it feeds the overhead accounting
	// of §V-F, not the detection logic itself.
	DetectionCostCycles uint64

	// SamplerCostCycles models the page-table-walk work per cleared page.
	SamplerCostCycles uint64
}

// DefaultConfig returns the paper's configuration for machine m and the
// given thread count: 4 KByte granularity, 256,000-element table, 10 ms
// sampler period, 10% additional page faults, 50 ms temporal window.
func DefaultConfig(m *topology.Machine, numThreads int) Config {
	return Config{
		NumThreads:            numThreads,
		Granularity:           m.PageSize,
		TableSize:             hashtab.DefaultSize,
		SamplerInterval:       m.SecondsToCycles(0.010),
		TargetExtraFaultRatio: 0.10,
		MinBatch:              8,
		TimeWindow:            m.SecondsToCycles(0.050),
		DetectionCostCycles:   150,
		SamplerCostCycles:     300,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumThreads <= 0:
		return errors.New("core: NumThreads must be positive")
	case c.Granularity <= 0 || c.Granularity&(c.Granularity-1) != 0:
		return fmt.Errorf("core: granularity %d is not a positive power of two", c.Granularity)
	case c.TableSize <= 0:
		return errors.New("core: TableSize must be positive")
	case c.TableSize > hashtab.MaxSize:
		return fmt.Errorf("core: TableSize %d exceeds the table's limit of %d buckets", c.TableSize, hashtab.MaxSize)
	case c.SamplerInterval == 0:
		return errors.New("core: SamplerInterval must be positive")
	case c.TargetExtraFaultRatio < 0 || c.TargetExtraFaultRatio >= 1:
		return errors.New("core: TargetExtraFaultRatio must be in [0, 1)")
	case c.MinBatch < 0:
		return errors.New("core: MinBatch must be non-negative")
	}
	return nil
}

// DetectorStats counts detector activity for the overhead analysis.
type DetectorStats struct {
	FaultsSeen      uint64 // faults delivered to the detector
	CommEvents      uint64 // matrix increments
	TemporalDropped uint64 // sharer pairs dropped by the time window
	DetectionCycles uint64 // modeled handler cost (DetectionCostCycles each)
}

// Detector is the SPCD communication detector.
type Detector struct {
	cfg       Config
	granShift uint
	table     *hashtab.Table
	matrix    *commmatrix.Matrix
	stats     DetectorStats
}

// NewDetector creates a detector. The configuration is validated.
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shift := uint(0)
	for 1<<shift != cfg.Granularity {
		shift++
	}
	return &Detector{
		cfg:       cfg,
		granShift: shift,
		table:     hashtab.New(cfg.TableSize),
		matrix:    commmatrix.New(cfg.NumThreads),
	}, nil
}

// HandleFault is the fault-handler hook (Fig. 2, gray boxes). Register it
// with vm.AddressSpace.AddHandler.
func (d *Detector) HandleFault(f vm.Fault) {
	if f.Thread < 0 || f.Thread >= d.cfg.NumThreads {
		return
	}
	d.stats.FaultsSeen++
	d.stats.DetectionCycles += d.cfg.DetectionCostCycles
	region := f.Addr >> d.granShift
	_, prev := d.table.Touch(region, f.Thread, f.Time)
	for _, s := range prev {
		if s.Thread == f.Thread {
			continue
		}
		if d.cfg.TimeWindow > 0 && f.Time-s.LastAccess > d.cfg.TimeWindow {
			d.stats.TemporalDropped++
			continue
		}
		d.matrix.Add(f.Thread, s.Thread, 1)
		d.stats.CommEvents++
	}
}

// Matrix returns the live communication matrix. Callers that need a stable
// view should Copy it.
func (d *Detector) Matrix() *commmatrix.Matrix { return d.matrix }

// Snapshot returns a copy of the current communication matrix.
func (d *Detector) Snapshot() *commmatrix.Matrix { return d.matrix.Copy() }

// Decay ages the matrix by factor (0..1), letting the detected pattern
// follow phase changes of the application.
func (d *Detector) Decay(factor float64) { d.matrix.Scale(factor) }

// Saturate models an overflow of the detection counters (fault injection's
// policy.sampler.saturate site): the matrix is halved — the same aging
// operation Decay applies (§III-B3), used here as overflow handling — so
// relative communication magnitudes, and therefore the mapping decision,
// survive the overflow.
func (d *Detector) Saturate() { d.matrix.Scale(0.5) }

// Stats returns a copy of the detector counters.
func (d *Detector) Stats() DetectorStats { return d.stats }

// TableStats exposes the hash-table counters (evictions indicate pressure).
func (d *Detector) TableStats() hashtab.Stats { return d.table.Stats() }

// TableMemoryBytes reports the fixed memory overhead of the mechanism.
func (d *Detector) TableMemoryBytes() int { return d.table.MemoryBytes() }

// GranularityShift returns log2 of the detection granularity, so callers
// can convert region indices back to addresses and pages.
func (d *Detector) GranularityShift() uint { return d.granShift }

// ForEachRegion iterates over the tracked regions and their sharers. The
// data-mapping extension uses it to find each region's dominant accessor.
func (d *Detector) ForEachRegion(fn func(region uint64, sharers []hashtab.Sharer)) {
	d.table.ForEach(func(e *hashtab.Entry) {
		fn(e.Region, e.Sharers)
	})
}

// SamplerStats counts sampler activity.
type SamplerStats struct {
	Wakeups       uint64
	PagesCleared  uint64
	SamplerCycles uint64 // modeled kernel-thread cost
}

// Sampler is the periodic kernel thread that creates additional page faults
// by clearing present bits of randomly sampled pages (§III-B2).
type Sampler struct {
	cfg         Config
	as          *vm.AddressSpace
	rng         *rand.Rand
	nextWake    uint64
	batch       int
	lastNatural uint64  // demand-paging faults observed at the last wakeup
	carry       float64 // fractional budget carried between wakeups
	stats       SamplerStats
}

// maxBatch bounds how many pages one wakeup may clear, so a cold start
// cannot stall the application with a fault storm.
const maxBatch = 4096

// NewSampler creates a sampler for address space as, driven by cfg.
func NewSampler(cfg Config, as *vm.AddressSpace, seed int64) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sampler{
		cfg:      cfg,
		as:       as,
		rng:      rand.New(rand.NewSource(seed)),
		nextWake: cfg.SamplerInterval,
		batch:    16,
	}, nil
}

// MaybeRun executes the sampler if its wakeup time has arrived. The engine
// calls it once per scheduling quantum with the current simulated time. It
// returns the number of pages cleared (0 if the sampler did not run).
func (s *Sampler) MaybeRun(now uint64) int {
	if now < s.nextWake {
		return 0
	}
	for now >= s.nextWake {
		s.nextWake += s.cfg.SamplerInterval
	}
	s.stats.Wakeups++
	s.adjustBatch()
	if s.batch <= 0 {
		return 0
	}
	pages := s.as.SampleResident(s.rng, s.batch)
	cleared := 0
	for _, vpn := range pages {
		if s.as.ClearPresentAt(vpn, now) {
			cleared++
		}
	}
	s.stats.PagesCleared += uint64(cleared)
	s.stats.SamplerCycles += uint64(cleared) * s.cfg.SamplerCostCycles
	return cleared
}

// adjustBatch implements the dynamic rate control: each wakeup budgets
// induced faults against the natural (demand-paging) faults observed since
// the previous wakeup, so that induced / total stays near
// TargetExtraFaultRatio while the application is faulting. Solving
// e / (n + e) = r for the induced count e gives e = r/(1-r) * n. A liveness
// floor (MinBatch) keeps detection running after the footprint is fully
// mapped; fractional budget carries over so small rates are not rounded
// away.
func (s *Sampler) adjustBatch() {
	st := s.as.Stats()
	natural := st.FirstTouchFaults
	delta := float64(natural - s.lastNatural)
	s.lastNatural = natural
	r := s.cfg.TargetExtraFaultRatio
	budget := r/(1-r)*delta + s.carry
	batch := int(budget)
	s.carry = budget - float64(batch)
	if batch < s.cfg.MinBatch {
		batch = s.cfg.MinBatch
	}
	if batch > maxBatch {
		batch = maxBatch
	}
	s.batch = batch
}

// Stats returns a copy of the sampler counters.
func (s *Sampler) Stats() SamplerStats { return s.stats }

// Batch returns the current batch size (visible for tests and ablations).
func (s *Sampler) Batch() int { return s.batch }

// SetMinBatch adjusts the liveness floor at runtime. The mapping policy
// uses it as a feedback controller: when sampling yields few communication
// events (a kernel with little sharing), the floor shrinks so the
// application is not taxed for information that is not there.
func (s *Sampler) SetMinBatch(b int) {
	if b < 0 {
		b = 0
	}
	s.cfg.MinBatch = b
}

// MinBatch returns the current liveness floor.
func (s *Sampler) MinBatch() int { return s.cfg.MinBatch }
