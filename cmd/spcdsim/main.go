// Command spcdsim runs one benchmark under one mapping policy on the
// simulated machine and prints the measured metrics — the smallest useful
// entry point into the reproduction.
//
// Usage:
//
//	spcdsim -bench SP -policy spcd -class tiny -threads 32 -seed 1 -matrix
package main

import (
	"flag"
	"fmt"

	"spcd"
	"spcd/internal/cli"
)

func main() {
	o := &cli.Options{Flags: cli.Bench | cli.Class | cli.Threads | cli.Seed,
		Bench: "SP", ClassName: "tiny", Threads: 32, Seed: 1}
	o.Register(flag.CommandLine)
	policy := flag.String("policy", "spcd", "mapping policy: os, random, oracle, spcd")
	matrix := flag.Bool("matrix", false, "print the detected communication matrix (spcd/oracle only)")
	o.Parse()

	w := o.Workload()
	m, err := spcd.Run(o.Machine(), w, *policy, o.Seed)
	cli.Check(err)

	fmt.Printf("benchmark      %s (class %s, %d threads)\n", w.Name(), o.ClassName, o.Threads)
	fmt.Printf("policy         %s\n", m.Policy)
	fmt.Printf("exec time      %.6f s (%d cycles)\n", m.ExecSeconds, m.ExecCycles)
	fmt.Printf("instructions   %d\n", m.Instructions)
	fmt.Printf("L2 MPKI        %.2f\n", m.L2MPKI)
	fmt.Printf("L3 MPKI        %.2f\n", m.L3MPKI)
	fmt.Printf("c2c transact.  %d (%d cross-socket)\n", m.Cache.C2CTotal(), m.Cache.C2CCrossSocket)
	fmt.Printf("DRAM accesses  %d (%d remote)\n", m.Cache.DRAMTotal(), m.Cache.DRAMRemote)
	fmt.Printf("invalidations  %d\n", m.Cache.Invalidations)
	fmt.Printf("page faults    %d (%d induced)\n", m.VM.TotalFaults(), m.VM.InducedFaults)
	fmt.Printf("proc energy    %.3f J (%.3f nJ/instr)\n", m.Energy.ProcessorJoules, m.Energy.ProcPerInstrNJ)
	fmt.Printf("DRAM energy    %.3f J (%.3f nJ/instr)\n", m.Energy.DRAMJoules, m.Energy.DRAMPerInstrNJ)
	fmt.Printf("migrations     %d events (%d thread moves)\n", m.Migrations, m.MigratedThreads)
	fmt.Printf("overhead       detection %.3f%%, mapping %.3f%%\n", m.DetectionOverheadPct, m.MappingOverheadPct)
	if *matrix {
		if m.CommMatrix == nil {
			fmt.Println("no communication matrix (policy does not detect)")
		} else {
			fmt.Println("\ndetected communication matrix:")
			fmt.Print(spcd.RenderHeatmap(m.CommMatrix))
		}
	}
}
