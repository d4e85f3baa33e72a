// Epoch-sharded execution (DESIGN.md §13): one simulation partitioned
// across a bounded worker pool with results that are byte-identical at any
// worker count. Virtual time advances in lockstep epochs of one policy-tick
// interval; within an epoch each worker simulates the threads of the cores
// it owns against live core-local state (L1/L2 arrays, per-context TLBs,
// per-thread stream and stall-injection state) and a frozen epoch-start
// image of the shared state (cache directory, L3s, page table). Every
// cross-shard effect is deferred: cache coherence actions become
// cache.Events appended to the issuing thread's stream, page faults suspend
// the thread, stall tallies and counter deltas accumulate per worker. At
// the barrier a single merge step applies everything in canonical
// (virtual-time, thread, sequence) order, resolves faults through the
// ordinary MMU path, emits buffered observability events, fires the policy
// ticks the epoch crossed, and takes the registry snapshots — all
// single-threaded, exactly like the sequential engine's policy layer.
//
// Worker-count invariance, by construction: a core (with its SMT siblings,
// interleaved by minimum clock, ties to the lower thread id) is simulated
// identically no matter which worker owns it, because everything it reads
// is either owned by it or frozen for the epoch; and the merge consumes
// only canonically ordered, positionally seeded inputs. Sharded results
// deliberately differ from the sequential engine's (coherence effects land
// at epoch boundaries, not instantly — the bound-weave relaxation); the
// sequential path stays the default and is bit-for-bit untouched.

package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"spcd/internal/cache"
	"spcd/internal/energy"
	"spcd/internal/faultinject"
	"spcd/internal/obs"
	"spcd/internal/runtimeobs"
	"spcd/internal/vm"
	"spcd/internal/workloads"
)

// shardThread is one application thread in the sharded engine. Unlike the
// sequential engine's heap entries, each thread carries its own access
// buffer (a suspended fault resumes mid-buffer) and its pending-fault
// record.
type shardThread struct {
	id     int
	clock  uint64
	done   bool
	buf    []workloads.Access
	bufLen int
	bufPos int

	// pending marks a thread suspended on a deferred page fault; the
	// fields below describe the faulting access for barrier resolution.
	pending   bool
	pendVTime uint64
	pendCtx   int
	pendAddr  uint64
	pendWrite bool
}

// engObsEvent is a worker-buffered engine trace event, emitted canonically
// at the barrier. shard records which worker simulated the event so Chrome
// lanes can distinguish workers; it is a pure function of the thread's
// core and the shard count (worker = core mod shards), so same-seed
// same-shard-count traces stay byte-identical.
type engObsEvent struct {
	vtime  uint64
	seq    uint64
	arg    uint64
	thread int32
	shard  int32
	kind   uint8
}

const (
	obsEvStall uint8 = iota
	obsEvDone
)

// shardWorker is the per-worker state bundle: the cache and MMU shard
// views plus this worker's accumulation buffers.
type shardWorker struct {
	id      int
	cacheSh *cache.Shard
	vmSh    *vm.Shard
	instr   uint64
	obsBuf  []engObsEvent
}

// runSharded executes one simulation on the epoch-sharded engine with
// cfg.Shards workers. cfg must be normalized.
func runSharded(cfg Config) (Metrics, error) {
	// Host-time spans (see internal/runtimeobs): per-worker per-epoch
	// simulate and barrier-wait, per-epoch merge/faults/tick on the barrier
	// lane, run-level init/finalize. Strictly one-way — stamps go in, no
	// host time comes back — so results are byte-identical with rt nil or
	// attached.
	rt := cfg.Runtime
	rtRun := rt.Lane("run")
	tStart := rt.Now()
	mach := cfg.Machine
	n := cfg.Workload.NumThreads()

	as := vm.NewAddressSpace(mach)
	as.SetAllocPolicy(cfg.AllocPolicy)
	caches := cache.New(mach)
	run := cfg.Workload.NewRun(cfg.Seed)
	inj := cfg.Injector
	as.SetInjector(inj)
	// The cache directory supplies the shootdown sharer sets; under
	// ShootdownNone the MMU never consults it. Shootdowns only happen in
	// barrier step 5 (policy ticks), where the directory is merged and
	// quiescent, so the read is safe and shard-count-independent.
	as.SetSharerSource(caches)

	probe := cfg.Probe
	if probe != nil {
		probe.SetDefaultClockHz(mach.ClockHz)
		as.RegisterObs(probe)
		caches.RegisterObs(probe)
		inj.RegisterObs(probe)
		if o, ok := cfg.Policy.(obs.Observer); ok {
			o.SetProbe(probe)
		}
	}

	env := &Env{Machine: mach, AS: as, Caches: caches, Workload: cfg.Workload,
		Seed: cfg.Seed, NumThreads: n, Injector: inj}
	if err := cfg.Policy.Init(env); err != nil {
		return Metrics{}, err
	}
	affinity := append([]int(nil), cfg.Policy.InitialAffinity()...)
	affScratch := make([]bool, mach.NumContexts())
	if err := checkAffinity(affinity, n, mach.NumContexts(), affScratch); err != nil {
		return Metrics{}, err
	}

	threads := make([]*shardThread, n)
	for t := 0; t < n; t++ {
		threads[t] = &shardThread{id: t, buf: make([]workloads.Access, cfg.BatchAccesses)}
	}
	stallers := inj.ThreadStallers(n)
	// Per-thread cache event streams, merged at every barrier, and
	// per-thread sequence numbers for the buffered obs events. A thread
	// runs on exactly one worker per epoch, so workers touch disjoint
	// indices of both.
	streams := make([][]cache.Event, n)
	seq := make([]uint64, n)

	numCores := mach.NumCores()
	w := cfg.Shards
	if w > numCores {
		w = numCores
	}
	workers := make([]*shardWorker, w)
	for i := range workers {
		workers[i] = &shardWorker{id: i, cacheSh: caches.NewShard(streams), vmSh: as.NewShard()}
	}

	compute := uint64(cfg.Workload.ComputeCyclesPerAccess())
	var instructions uint64
	var execCycles uint64
	migrations, movedThreads := 0, 0
	nextTick := cfg.TickIntervalCycles
	// Reusable per-core buffer for draining shootdown remote stalls.
	var sdStalls []uint64

	nextSample := uint64(math.MaxUint64)
	var sampleInterval uint64
	var movedHist *obs.Histogram
	if probe != nil {
		reg := probe.Registry()
		reg.CounterFunc("engine.instructions", func() uint64 { return instructions })
		reg.CounterFunc("engine.migrations", func() uint64 { return uint64(migrations) })
		reg.CounterFunc("engine.migrated_threads", func() uint64 { return uint64(movedThreads) })
		movedHist = reg.Histogram("engine.moved_per_remap", []float64{1, 2, 4, 8, 16})
		sampleInterval = probe.SampleIntervalCycles()
		if sampleInterval == 0 {
			sampleInterval = workloads.NominalCycles(cfg.Workload) / 256
			if sampleInterval == 0 {
				sampleInterval = 1
			}
		}
		nextSample = sampleInterval
		probe.Snapshot(0)
	}

	// Serial initialization phase, identical to the sequential engine: the
	// master thread first-touches the data set before the epoch machinery
	// starts, against the live (not yet shared) state.
	pageShift := as.PageShift()
	pageMask := uint64(mach.PageSize - 1)
	if init, ok := run.(workloads.Initializer); ok {
		clock := uint64(0)
		ibuf := make([]workloads.InitAccess, cfg.BatchAccesses)
		for {
			k := init.NextInit(ibuf)
			if k == 0 {
				break
			}
			for _, a := range ibuf[:k] {
				ctx := affinity[a.Thread%n]
				frame, node, hit := as.AccessFast(ctx, a.Addr)
				if !hit {
					tr := as.Access(a.Thread%n, ctx, a.Addr, a.Write, clock)
					frame, node = tr.Frame, tr.Node
					clock += uint64(tr.Cycles)
				}
				phys := uint64(frame)<<pageShift | (a.Addr & pageMask)
				if cyc, ok := caches.AccessFast(ctx, phys, a.Write); ok {
					clock += compute + uint64(cyc)
				} else {
					res := caches.Access(ctx, phys, a.Write, node)
					clock += compute + uint64(res.Cycles)
				}
			}
			instructions += uint64(k) * (1 + compute)
		}
		for _, th := range threads {
			th.clock = clock
		}
		if probe != nil {
			probe.Emit(clock, "engine", "init.done", -1, obs.Uint("cycles", clock))
		}
	}

	tLoop := rt.Now()
	rtRun.SpanAt(runtimeobs.SpanInit, tStart, tLoop, -1, -1)
	// Per-worker host lanes plus the single-threaded barrier lane. The
	// slices are always allocated (w is small) so the disabled path stays
	// branch-free; nil lanes make every SpanAt a no-op. Worker goroutines
	// write only their own workerEnd/workerWorked slot, and the main
	// goroutine reads them after wg.Wait's happens-before edge.
	rtWorkers := make([]*runtimeobs.Lane, w)
	for i := range rtWorkers {
		rtWorkers[i] = rt.Lane(fmt.Sprintf("worker %d", i))
	}
	rtBarrier := rt.Lane("barrier")
	workerEnd := make([]runtimeobs.Stamp, w)
	workerWorked := make([]bool, w)
	epochIdx := int64(-1)

	epoch := cfg.TickIntervalCycles
	epochEnd := epoch
	coreThreads := make([][]*shardThread, numCores)
	var mergedObs []engObsEvent
	var faulted []*shardThread

	alive := n
	for alive > 0 {
		epochIdx++
		// Skip empty epochs deterministically: if no live thread is below
		// the boundary (long stall bursts, migration charges), jump to the
		// first boundary above the minimum clock. Skipped tick boundaries
		// still fire in order at the barrier's catch-up loop.
		minClock := uint64(math.MaxUint64)
		for _, th := range threads {
			if !th.done && th.clock < minClock {
				minClock = th.clock
			}
		}
		if minClock >= epochEnd {
			epochEnd = (minClock/epoch + 1) * epoch
		}

		// Partition live threads by the core their context belongs to; SMT
		// siblings land on the same core and interleave inside one worker.
		for c := range coreThreads {
			coreThreads[c] = coreThreads[c][:0]
		}
		for _, th := range threads {
			if th.done {
				continue
			}
			core := mach.CoreOf(affinity[th.id])
			coreThreads[core] = append(coreThreads[core], th)
		}

		// Parallel phase: worker i owns cores i, i+w, i+2w, ... The
		// assignment is irrelevant to results — every input a core's
		// simulation reads is either owned by that core or frozen for the
		// epoch (enforced by the sweep-parallel spcdlint rule).
		tEpoch := rt.Now()
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func(wk *shardWorker, first int) {
				defer wg.Done()
				worked := false
				for core := first; core < numCores; core += w {
					if len(coreThreads[core]) == 0 {
						continue
					}
					worked = true
					simulateCore(wk, coreThreads[core], epochEnd, run, affinity,
						stallers, seq, compute, pageShift, pageMask, probe != nil)
				}
				end := rt.Now()
				if worked {
					rtWorkers[first].SpanAt(runtimeobs.SpanSimulate, tEpoch, end, epochIdx, -1)
				}
				workerEnd[first] = end
				workerWorked[first] = worked
			}(workers[i], i)
		}
		wg.Wait()
		tBarrier := rt.Now()
		if rt != nil {
			// Barrier-wait: the gap between each working worker's finish and
			// the barrier. Idle workers (no cores with live threads) are
			// excluded so a thin epoch doesn't read as a stall.
			for i := range rtWorkers {
				if workerWorked[i] {
					rtWorkers[i].SpanAt(runtimeobs.SpanBarrierWait, workerEnd[i], tBarrier, epochIdx, -1)
				}
			}
		}

		// Barrier merge, single-threaded from here on.
		// 1. Cache coherence effects in canonical order: a k-way merge of
		// the per-thread streams, each already in vtime order.
		caches.ApplyStreams(streams)

		// 2. Counter deltas (order-independent sums).
		for _, wk := range workers {
			wk.cacheSh.MergeStats()
			wk.vmSh.MergeStats()
			instructions += wk.instr
			wk.instr = 0
		}
		inj.MergeThreadStalls(stallers)

		// 3. Buffered engine trace events, canonically ordered.
		if probe != nil {
			mergedObs = mergedObs[:0]
			for _, wk := range workers {
				mergedObs = append(mergedObs, wk.obsBuf...)
				wk.obsBuf = wk.obsBuf[:0]
			}
			slices.SortFunc(mergedObs, compareObsEvents)
			for i := range mergedObs {
				ev := &mergedObs[i]
				switch ev.kind {
				case obsEvStall:
					probe.Emit(ev.vtime, "engine", "stall.injected", int(ev.thread),
						obs.Uint("cycles", ev.arg), obs.Uint("shard", uint64(ev.shard)))
				case obsEvDone:
					probe.Emit(ev.vtime, "engine", "thread.done", int(ev.thread),
						obs.Uint("shard", uint64(ev.shard)))
				}
			}
		}
		tMerge := rt.Now()
		rtBarrier.SpanAt(runtimeobs.SpanMerge, tBarrier, tMerge, epochIdx, -1)

		// 4. Deferred page faults, in (virtual time, thread) order: the
		// full MMU path runs here — frame allocation, present-bit restore,
		// handler-chain notification (the SPCD detector), injector
		// drop/dup draws — so fault ordering and side effects are exactly
		// as canonical as the rest of the merge. The faulting access then
		// completes against the merged cache state, and the thread resumes
		// its buffer next epoch.
		faulted = faulted[:0]
		for _, th := range threads {
			if th.pending {
				faulted = append(faulted, th)
			}
		}
		slices.SortFunc(faulted, compareFaults)
		for _, th := range faulted {
			tr := as.Access(th.id, th.pendCtx, th.pendAddr, th.pendWrite, th.pendVTime)
			th.clock += uint64(tr.Cycles)
			phys := uint64(tr.Frame)<<pageShift | (th.pendAddr & pageMask)
			res := caches.Access(th.pendCtx, phys, th.pendWrite, tr.Node)
			th.clock += compute + uint64(res.Cycles)
			th.bufPos++
			th.pending = false
		}
		tFaults := rt.Now()
		rtBarrier.SpanAt(runtimeobs.SpanFaults, tMerge, tFaults, epochIdx, int64(len(faulted)))

		// 5. Policy ticks the epoch crossed, in boundary order — the same
		// catch-up loop as the sequential engine, including migration
		// charging and remap accounting.
		for nextTick <= epochEnd {
			if newAff := cfg.Policy.Tick(nextTick); newAff != nil {
				if err := checkAffinity(newAff, n, mach.NumContexts(), affScratch); err != nil {
					return Metrics{}, fmt.Errorf("engine: policy %s: %w", cfg.Policy.Name(), err)
				}
				moved := 0
				for t := 0; t < n; t++ {
					if newAff[t] != affinity[t] {
						moved++
						threads[t].clock += cfg.MigrationCostCycles
						if probe != nil {
							probe.Emit(nextTick, "engine", "migrate", t,
								obs.Uint("from_ctx", uint64(affinity[t])),
								obs.Uint("to_ctx", uint64(newAff[t])))
						}
					}
				}
				if moved > 0 {
					migrations++
					movedThreads += moved
					if probe != nil {
						probe.Emit(nextTick, "engine", "remap", -1, obs.Uint("moved", uint64(moved)))
						movedHist.Observe(float64(moved))
					}
				}
				copy(affinity, newAff)
			}
			nextTick += cfg.TickIntervalCycles
		}
		// Remote TLB-invalidate stalls from any shootdowns the ticks issued,
		// charged in thread order against the post-tick affinity — the same
		// canonical drain as the sequential engine, still single-threaded,
		// so the charge is byte-identical at every shard count.
		if stalls, any := as.DrainRemoteStalls(sdStalls); any {
			sdStalls = stalls
			for t := 0; t < n; t++ {
				if threads[t].done {
					continue
				}
				if sc := stalls[mach.CoreOf(affinity[t])]; sc > 0 {
					threads[t].clock += sc
				}
			}
		} else {
			sdStalls = stalls
		}

		// 6. Registry snapshots at the boundaries the epoch crossed.
		for nextSample <= epochEnd {
			probe.Snapshot(nextSample)
			nextSample += sampleInterval
		}
		rtBarrier.SpanAt(runtimeobs.SpanPolicyTick, tFaults, rt.Now(), epochIdx, -1)

		alive = 0
		for _, th := range threads {
			if !th.done {
				alive++
			}
			if th.clock > execCycles {
				execCycles = th.clock
			}
		}
		epochEnd += epoch
	}

	if probe != nil {
		probe.Snapshot(execCycles)
	}
	tDone := rt.Now()

	m := Metrics{
		Policy:          cfg.Policy.Name(),
		Workload:        cfg.Workload.Name(),
		Seed:            cfg.Seed,
		ExecCycles:      execCycles,
		ExecSeconds:     mach.CyclesToSeconds(execCycles),
		Instructions:    instructions,
		Cache:           caches.Stats(),
		VM:              as.Stats(),
		Migrations:      migrations,
		MigratedThreads: movedThreads,
		CommMatrix:      cfg.Policy.FinalMatrix(),
		Shootdown:       as.ShootdownStats(),
	}
	if instructions > 0 {
		m.L2MPKI = float64(m.Cache.L2Misses) / float64(instructions) * 1000
		m.L3MPKI = float64(m.Cache.L3Misses) / float64(instructions) * 1000
	}
	m.Energy = energy.Compute(*cfg.EnergyParams, mach, m.ExecSeconds, instructions, m.Cache)

	ov := cfg.Policy.Overheads()
	// Same overhead split as the sequential engine: clear-side shootdown
	// initiator stall joins detection, remap-side is inside MappingCycles.
	inducedCycles := m.VM.InducedFaults * uint64(as.Costs().InducedFault)
	totalCPU := float64(execCycles) * float64(n)
	if totalCPU > 0 {
		m.DetectionOverheadPct = 100 * float64(ov.DetectionCycles+inducedCycles+m.Shootdown.ClearInitCycles) / totalCPU
		m.MappingOverheadPct = 100 * float64(ov.MappingCycles) / totalCPU
	}
	tEnd := rt.Now()
	rtRun.SpanAt(runtimeobs.SpanFinalize, tDone, tEnd, -1, -1)
	rtRun.SpanAt(runtimeobs.SpanRun, tStart, tEnd, -1, -1)
	rt.SetMeta("kind", "engine")
	rt.SetMeta("mode", "epoch-sharded")
	rt.SetMetaInt("shards", int64(w))
	return m, nil
}

// compareObsEvents orders buffered engine trace events canonically by
// (vtime, thread, seq), a total order: seq is unique per thread.
func compareObsEvents(a, b engObsEvent) int {
	if c := cmp.Compare(a.vtime, b.vtime); c != 0 {
		return c
	}
	if c := cmp.Compare(a.thread, b.thread); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// compareFaults orders suspended threads by (fault vtime, thread id), a
// total order: thread ids are unique.
func compareFaults(a, b *shardThread) int {
	if c := cmp.Compare(a.pendVTime, b.pendVTime); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// simulateCore advances one core's threads to the epoch boundary. SMT
// siblings interleave by minimum clock (ties to the lower thread id), the
// same discipline the sequential engine's global heap applies — restricted
// to this core, whose state no other worker touches.
func simulateCore(wk *shardWorker, ths []*shardThread, epochEnd uint64,
	run workloads.Run, affinity []int, stallers []*faultinject.ThreadStaller, seq []uint64,
	compute uint64, pageShift uint, pageMask uint64, probeOn bool) {
	for {
		var th *shardThread
		for _, t := range ths {
			if t.done || t.pending || t.clock >= epochEnd {
				continue
			}
			if th == nil || t.clock < th.clock {
				th = t
			}
		}
		if th == nil {
			return
		}

		// Injected thread stall: drawn from this thread's positional
		// stream, so the draw order never depends on the partition.
		if stallers != nil {
			if burst := stallers[th.id].Draw(); burst > 0 {
				if probeOn {
					wk.obsBuf = append(wk.obsBuf, engObsEvent{
						vtime: th.clock, seq: seq[th.id], thread: int32(th.id),
						shard: int32(wk.id), kind: obsEvStall, arg: burst})
					seq[th.id]++
				}
				th.clock += burst
				continue
			}
		}

		if th.bufPos == th.bufLen {
			k := run.Next(th.id, th.buf)
			if k == 0 {
				th.done = true
				if probeOn {
					wk.obsBuf = append(wk.obsBuf, engObsEvent{
						vtime: th.clock, seq: seq[th.id], thread: int32(th.id),
						shard: int32(wk.id), kind: obsEvDone})
					seq[th.id]++
				}
				continue
			}
			th.bufLen, th.bufPos = k, 0
			wk.instr += uint64(k) * (1 + compute)
		}

		ctx := affinity[th.id]
		for th.bufPos < th.bufLen {
			a := th.buf[th.bufPos]
			vtime := th.clock
			frame, node, mmuCyc, ok := wk.vmSh.Translate(ctx, a.Addr)
			if !ok {
				// Deferred fault: suspend until the barrier resolves it.
				th.pending = true
				th.pendVTime = vtime
				th.pendCtx = ctx
				th.pendAddr = a.Addr
				th.pendWrite = a.Write
				break
			}
			th.clock += uint64(mmuCyc)
			cyc := wk.cacheSh.Access(ctx, uint64(frame)<<pageShift|(a.Addr&pageMask),
				a.Write, node, vtime, th.id)
			th.clock += compute + uint64(cyc)
			th.bufPos++
		}
	}
}
