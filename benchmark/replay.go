package main

import (
	"spcd/internal/cache"
	"spcd/internal/commmatrix"
	"spcd/internal/mapping"
	"spcd/internal/topology"
	"spcd/internal/vm"
)

// sampleEvery is how often a slow-path call is timed on its own. A clock
// read costs tens of nanoseconds on a VM, as much as a fast-path call, so
// timing every call would distort the pass; one in sampleEvery keeps the
// added reads under a few percent of the replay.
const sampleEvery = 16

// replayTimes is what replaying one captured stream measured.
type replayTimes struct {
	vm, cache  pathTimes
	clears     int64
	clearNanos float64
	vmStats    vm.Stats
	cacheStats cache.Stats
}

// pathTimes splits one layer's replay into its fast and slow paths.
type pathTimes struct {
	ops, slow    int64
	nanos        float64 // whole passes, corrected for the clock reads in them
	sampled      int64
	sampledNanos float64 // the sampled slow calls alone, corrected
}

// replay drives a captured stream through a fresh address space and cache
// hierarchy on machine m. Per slice, it first clears the pages whose
// induced faults the live slice took, then times all MMU calls in one pass
// and all cache calls in a second pass. Replaying in live order with live
// contexts reproduces the live MMU and cache counters exactly: a cleared
// page is untouched between its clear and its induced fault, so clearing it
// just before that slice instead of at the live tick changes no lookup.
// readNs is the cost of one clock read (see clockReadNanos).
func replay(m *topology.Machine, s *stream, readNs float64) replayTimes {
	as := vm.NewAddressSpace(m)
	caches := cache.New(m)
	as.SetSharerSource(caches)
	pageShift := as.PageShift()
	pageMask := uint64(m.PageSize - 1)

	maxLen := 0
	for _, sl := range s.slices {
		if n := sl.hi - sl.lo; n > maxLen {
			maxLen = n
		}
	}
	frames := make([]int64, maxLen)
	nodes := make([]int, maxLen)

	var rt replayTimes
	var vmSlowSeen, cacheSlowSeen int64
	for _, sl := range s.slices {
		if sl.indHi > sl.indLo {
			start := nanos()
			for _, p := range s.induced[sl.indLo:sl.indHi] {
				as.ClearPresent(p)
			}
			rt.clearNanos += float64(nanos()-start) - readNs
			rt.clears += int64(sl.indHi - sl.indLo)
		}
		acc := s.acc[sl.lo:sl.hi]

		var sampled int64
		start := nanos()
		for i, a := range acc {
			frame, node, ok := as.AccessFast(sl.ctx, a.Addr)
			if !ok {
				vmSlowSeen++
				var tr vm.Translation
				if vmSlowSeen%sampleEvery == 0 {
					t0 := nanos()
					tr = as.Access(sl.thread, sl.ctx, a.Addr, a.Write, 0)
					rt.vm.sampledNanos += float64(nanos()-t0) - readNs
					sampled++
				} else {
					tr = as.Access(sl.thread, sl.ctx, a.Addr, a.Write, 0)
				}
				frame, node = tr.Frame, tr.Node
			}
			frames[i], nodes[i] = frame, node
		}
		// The pass span holds one clock read of its own plus two per
		// sampled call.
		rt.vm.nanos += float64(nanos()-start) - readNs*float64(1+2*sampled)
		rt.vm.sampled += sampled

		sampled = 0
		start = nanos()
		for i, a := range acc {
			phys := uint64(frames[i])<<pageShift | (a.Addr & pageMask)
			if _, ok := caches.AccessFast(sl.ctx, phys, a.Write); ok {
				continue
			}
			cacheSlowSeen++
			if cacheSlowSeen%sampleEvery == 0 {
				t0 := nanos()
				caches.Access(sl.ctx, phys, a.Write, nodes[i])
				rt.cache.sampledNanos += float64(nanos()-t0) - readNs
				sampled++
			} else {
				caches.Access(sl.ctx, phys, a.Write, nodes[i])
			}
		}
		rt.cache.nanos += float64(nanos()-start) - readNs*float64(1+2*sampled)
		rt.cache.sampled += sampled
		rt.vm.ops += int64(len(acc))
		rt.cache.ops += int64(len(acc))
	}
	rt.vm.slow = vmSlowSeen
	rt.cache.slow = cacheSlowSeen
	rt.vmStats = as.Stats()
	rt.cacheStats = caches.Stats()
	return rt
}

// replayEvaluate times Mapper.Evaluate on a run's evaluated matrices, in
// order, on a fresh mapper, and returns the corrected total.
func replayEvaluate(m *topology.Machine, n int, matrices []*commmatrix.Matrix, readNs float64) (calls int64, total float64, err error) {
	if len(matrices) == 0 {
		return 0, 0, nil
	}
	mp, err := mapping.NewMapper(m, n, nil)
	if err != nil {
		return 0, 0, err
	}
	for _, mat := range matrices {
		start := nanos()
		if _, err := mp.Evaluate(mat); err != nil {
			return 0, 0, err
		}
		total += float64(nanos()-start) - readNs
		calls++
	}
	return calls, total, nil
}
