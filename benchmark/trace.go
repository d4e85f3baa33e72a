package main

import (
	"spcd/internal/commmatrix"
	"spcd/internal/engine"
	"spcd/internal/vm"
	"spcd/internal/workloads"
)

// runTrace records one traced engine run from outside the program: the
// workload and policy decorators below time the calls the engine makes into
// them, two fault handlers bracket the detector's, and (on the sequential
// engine) the access stream is captured per scheduling slice for replay.
//
// The sharded engine calls Next from its worker goroutines, one goroutine
// per core group per epoch, with a WaitGroup barrier between epochs; every
// field Next writes is therefore per thread. Init, Tick, the fault handlers
// and NextInit run on the engine's own goroutine.
type runTrace struct {
	capture bool // record the access stream (sequential engine only)

	threads []threadTime // per thread, written only by that thread's Next
	initT   threadTime   // NextInit calls

	aff []int // thread -> context, as the engine applies it

	ticks     int64
	tickNanos int64

	faults     int64
	faultNanos int64 // from the handler before the detector's to the one after
	faultStart int64

	matrices []*commmatrix.Matrix // every matrix SPCD evaluated

	stream stream
}

type threadTime struct {
	calls int64
	nanos int64
	first int64 // nanos at the first call; 0 before it
}

// stream is the captured access stream: slices in the order the engine
// executed them. Slice i covers acc[lo:hi] and must first clear
// induced[indLo:indHi], the pages whose induced faults it took.
type stream struct {
	acc     []workloads.Access
	slices  []slice
	induced []uint64
}

type slice struct {
	thread, ctx  int
	lo, hi       int
	indLo, indHi int
}

func newRunTrace(threads int, capture bool) *runTrace {
	return &runTrace{capture: capture, threads: make([]threadTime, threads)}
}

func (s *stream) add(thread, ctx int, acc []workloads.Access) {
	lo := len(s.acc)
	s.acc = append(s.acc, acc...)
	s.slices = append(s.slices, slice{thread: thread, ctx: ctx, lo: lo, hi: len(s.acc),
		indLo: len(s.induced), indHi: len(s.induced)})
}

func (t *threadTime) add(start, d int64) {
	if t.calls == 0 {
		t.first = start
	}
	t.calls++
	t.nanos += d
}

// firstCall returns the earliest stamp at which the engine called into the
// workload's run, or 0 if it never did.
func (tr *runTrace) firstCall() int64 {
	first := tr.initT.first
	for _, th := range tr.threads {
		if th.first != 0 && (first == 0 || th.first < first) {
			first = th.first
		}
	}
	return first
}

// tracedWorkload decorates a workload so that its runs are timed.
type tracedWorkload struct {
	workloads.Workload
	tr *runTrace
}

func (w tracedWorkload) NewRun(seed int64) workloads.Run {
	r := &tracedRun{inner: w.Workload.NewRun(seed), tr: w.tr, n: w.NumThreads()}
	if init, ok := r.inner.(workloads.Initializer); ok {
		return &tracedInitRun{tracedRun: r, init: init}
	}
	return r
}

type tracedRun struct {
	inner workloads.Run
	tr    *runTrace
	n     int
}

func (r *tracedRun) Next(t int, buf []workloads.Access) int {
	start := nanos()
	k := r.inner.Next(t, buf)
	r.tr.threads[t].add(start, nanos()-start)
	if r.tr.capture && k > 0 {
		r.tr.stream.add(t, r.tr.aff[t], buf[:k])
	}
	return k
}

// tracedInitRun forwards the optional Initializer, which the engine finds
// by type assertion.
type tracedInitRun struct {
	*tracedRun
	init workloads.Initializer
	acc  []workloads.Access
}

func (r *tracedInitRun) NextInit(buf []workloads.InitAccess) int {
	start := nanos()
	k := r.init.NextInit(buf)
	r.tr.initT.add(start, nanos()-start)
	if !r.tr.capture {
		return k
	}
	// One slice per run of same-thread accesses, attributed as the engine
	// does: thread a.Thread mod n on that thread's context.
	for i := 0; i < k; {
		t := buf[i].Thread % r.n
		r.acc = r.acc[:0]
		for ; i < k && buf[i].Thread%r.n == t; i++ {
			r.acc = append(r.acc, buf[i].Access)
		}
		r.tr.stream.add(t, r.tr.aff[t], r.acc)
	}
	return k
}

// tracedPolicy decorates a policy: it times Tick, tracks the affinity the
// engine applies, and brackets the detector's fault handler.
type tracedPolicy struct {
	engine.Policy
	tr *runTrace
}

func (p tracedPolicy) Init(env *engine.Env) error {
	// Handlers run in registration order, so these two bracket whatever
	// handler the inner Init registers.
	env.AS.AddHandler(p.tr.beforeFault)
	err := p.Policy.Init(env)
	env.AS.AddHandler(p.tr.afterFault)
	return err
}

func (p tracedPolicy) InitialAffinity() []int {
	aff := p.Policy.InitialAffinity()
	p.tr.aff = append(p.tr.aff[:0], aff...)
	return aff
}

func (p tracedPolicy) Tick(now uint64) []int {
	start := nanos()
	aff := p.Policy.Tick(now)
	p.tr.tickNanos += nanos() - start
	p.tr.ticks++
	if aff != nil {
		copy(p.tr.aff, aff)
	}
	return aff
}

func (tr *runTrace) beforeFault(f vm.Fault) {
	if tr.capture && f.Type == vm.FaultInduced && len(tr.stream.slices) > 0 {
		// Faults happen while the engine executes the slice Next returned
		// last, so the induced page belongs to that slice.
		tr.stream.induced = append(tr.stream.induced, f.Page)
		tr.stream.slices[len(tr.stream.slices)-1].indHi = len(tr.stream.induced)
	}
	tr.faults++
	tr.faultStart = nanos()
}

func (tr *runTrace) afterFault(vm.Fault) { tr.faultNanos += nanos() - tr.faultStart }

// onEvaluate is SPCD's OnEvaluate hook: it keeps a copy of every evaluated
// matrix so Mapper.Evaluate can be timed on them after the run.
func (tr *runTrace) onEvaluate(_ uint64, m *commmatrix.Matrix) {
	tr.matrices = append(tr.matrices, m.Copy())
}
