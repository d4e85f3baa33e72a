// NUMA placement: explore how machine topology changes mapping decisions.
// The same communicating application is mapped onto three machines — a
// single-socket desktop, the paper's dual-socket server, and a four-socket
// box — showing how the hierarchical algorithm folds thread groups to match
// each machine's sharing domains, and what that placement is worth.
//
// Run with:
//
//	go run ./examples/numa_placement
package main

import (
	"fmt"
	"log"

	"spcd"
)

func main() {
	// A 16-thread workload with ring communication: thread t talks to its
	// neighbours, so good mappings keep the ring contiguous.
	w, err := spcd.NPB("CG", 16, spcd.ClassTiny)
	if err != nil {
		log.Fatal(err)
	}

	machines := []struct {
		label                    string
		sockets, cores, smtWidth int
	}{
		{"1 socket x 8 cores x 2 SMT (desktop)", 1, 8, 2},
		{"2 sockets x 8 cores x 2 SMT (paper's server)", 2, 8, 2},
		{"4 sockets x 4 cores x 2 SMT", 4, 4, 2},
	}

	for _, spec := range machines {
		mach, err := spcd.NewMachine(spec.sockets, spec.cores, spec.smtWidth)
		if err != nil {
			log.Fatal(err)
		}
		truth := spcd.TraceCommunication(w, mach, 1)
		aff, err := spcd.ComputeMapping(truth, mach)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", spec.label)
		for t, ctx := range aff {
			fmt.Printf("  T%02d -> socket %d, core %2d, smt %d\n",
				t, mach.SocketOf(ctx), mach.CoreOf(ctx), mach.SMTSlotOf(ctx))
		}
		// Quantify: communication cost of this placement vs. the worst
		// observed over a few random shuffles.
		cost, err := spcd.MappingCost(truth, mach, aff)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  communication cost: %.3g\n", cost)

		// How often do ring neighbours share a core or socket?
		sameCore, sameSocket := 0, 0
		n := w.NumThreads()
		for t := 0; t < n; t++ {
			nb := (t + 1) % n
			if mach.CoreOf(aff[t]) == mach.CoreOf(aff[nb]) {
				sameCore++
			} else if mach.SocketOf(aff[t]) == mach.SocketOf(aff[nb]) {
				sameSocket++
			}
		}
		fmt.Printf("  ring neighbours: %d/%d share a core, %d more share a socket\n\n",
			sameCore, n, sameSocket)
	}
}
