package workloads

import (
	"fmt"
	"math/rand"
)

// ProducerConsumer is the verification benchmark of §V-B (Fig. 5): pairs of
// threads communicate through a shared vector, and the pairing alternates
// between two phases. In phase one, neighbouring threads (2k, 2k+1)
// communicate; in phase two, distant threads (t, t + N/2) communicate. The
// best mapping therefore changes with the phase, which exercises the
// dynamic detection and migration machinery.
type ProducerConsumer struct {
	threads     int
	class       Class
	phaseLength uint64 // accesses per thread per phase
	phases      int    // total phases executed
}

// NewProducerConsumer creates the benchmark. threads must be even and >= 4
// so both phases produce distinct pairings. phases is the number of phase
// switches + 1; phaseLength is per-thread accesses in each phase. The
// class must pass Validate; its Accesses is unused.
func NewProducerConsumer(threads int, class Class, phases int, phaseLength uint64) (*ProducerConsumer, error) {
	if threads < 4 || threads%2 != 0 {
		return nil, fmt.Errorf("workloads: producer/consumer needs an even thread count >= 4, got %d", threads)
	}
	if phases < 1 || phaseLength == 0 {
		return nil, fmt.Errorf("workloads: invalid phases (%d) or phase length (%d)", phases, phaseLength)
	}
	if err := class.Validate(); err != nil {
		return nil, err
	}
	return &ProducerConsumer{threads: threads, class: class, phases: phases, phaseLength: phaseLength}, nil
}

// Name identifies the benchmark.
func (p *ProducerConsumer) Name() string { return "producer-consumer" }

// NumThreads returns the thread count.
func (p *ProducerConsumer) NumThreads() int { return p.threads }

// AccessesPerThread returns each thread's total work.
func (p *ProducerConsumer) AccessesPerThread() uint64 {
	return p.phaseLength * uint64(p.phases)
}

// ComputeCyclesPerAccess returns the inter-access compute gap.
func (p *ProducerConsumer) ComputeCyclesPerAccess() int { return p.class.ComputePerMemop }

// PhaseLength returns the per-thread accesses in one phase.
func (p *ProducerConsumer) PhaseLength() uint64 { return p.phaseLength }

// PartnerInPhase returns the partner of thread t during the given phase
// (0-based): neighbours in even phases, distant threads in odd phases.
func (p *ProducerConsumer) PartnerInPhase(t, phase int) int {
	if phase%2 == 0 {
		if t%2 == 0 {
			return t + 1
		}
		return t - 1
	}
	return (t + p.threads/2) % p.threads
}

type pcThread struct {
	rng       *rand.Rand
	remaining uint64
	private   cursor
	// one cursor per phase parity, pointing at the phase's pair region
	pair [2]cursor
}

type pcRun struct {
	p         *ProducerConsumer
	threads   []pcThread
	initPages []InitAccess
	initPos   int
}

// NextInit produces the initialization sweep. Unlike the NPB kernels, each
// shared vector is initialized by its producer and each private region by
// its owner, which is how a hand-written producer/consumer program behaves;
// pages are therefore homed at their natural owners.
func (r *pcRun) NextInit(buf []InitAccess) int {
	n := 0
	for n < len(buf) && r.initPos < len(r.initPages) {
		buf[n] = r.initPages[r.initPos]
		r.initPos++
		n++
	}
	return n
}

// NewRun instantiates deterministic streams for one execution.
func (p *ProducerConsumer) NewRun(seed int64) Run {
	run := &pcRun{p: p, threads: make([]pcThread, p.threads)}
	bnd := uint64(p.class.BoundaryPages) * PageBytes
	addRegion := func(owner int, base, size uint64) {
		for off := uint64(0); off < size; off += PageBytes {
			run.initPages = append(run.initPages,
				InitAccess{Thread: owner, Access: Access{Addr: base + off, Write: true}})
		}
	}
	pairSeen := make(map[uint64]bool)
	for t := 0; t < p.threads; t++ {
		addRegion(t, privateRegion(t, uint64(p.class.PrivatePages)*PageBytes),
			uint64(p.class.PrivatePages)*PageBytes)
		if t%2 != 0 {
			continue // producers (even threads) own the shared vectors
		}
		for parity := 0; parity < 2; parity++ {
			base := pairRegion(t, p.PartnerInPhase(t, parity), p.threads, bnd)
			if !pairSeen[base] {
				pairSeen[base] = true
				addRegion(t, base, bnd)
			}
		}
	}
	for t := 0; t < p.threads; t++ {
		th := &run.threads[t]
		th.rng = rand.New(rand.NewSource(seed*999_983 + int64(t)))
		th.remaining = p.AccessesPerThread()
		th.private = newCursor(privateRegion(t, uint64(p.class.PrivatePages)*PageBytes),
			uint64(p.class.PrivatePages)*PageBytes)
		for parity := 0; parity < 2; parity++ {
			partner := p.PartnerInPhase(t, parity)
			th.pair[parity] = newCursor(pairRegion(t, partner, p.threads, bnd), bnd)
		}
	}
	return run
}

// pairRatio is the fraction of producer/consumer accesses that hit the
// shared vector; the benchmark exists to communicate, so it is high.
const pcPairRatio = 0.6

// Next generates up to len(buf) accesses for thread t.
func (r *pcRun) Next(t int, buf []Access) int {
	th := &r.threads[t]
	p := r.p
	total := p.AccessesPerThread()
	n := 0
	for n < len(buf) && th.remaining > 0 {
		done := total - th.remaining
		phase := int(done / p.phaseLength)
		if phase >= p.phases {
			phase = p.phases - 1
		}
		parity := phase % 2
		th.remaining--
		var addr uint64
		var write bool
		if th.rng.Float64() < pcPairRatio {
			addr = th.pair[parity].next(th.rng)
			// Producers (even threads) mostly write, consumers read.
			if t%2 == 0 {
				write = th.rng.Float64() < 0.7
			} else {
				write = th.rng.Float64() < 0.3
			}
		} else {
			addr = th.private.next(th.rng)
			write = th.rng.Float64() < 0.3
		}
		buf[n] = Access{Addr: addr, Write: write}
		n++
	}
	return n
}
