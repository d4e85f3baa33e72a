// Detection comparison: run the three communication-detection mechanisms
// discussed in the paper — SPCD (shared pages, §III), TLB comparison (the
// authors' earlier IPDPS 2012 work, ref. [22]) and hardware-counter
// estimation (Azimi et al., ref. [7]) — on the same workload, and compare
// the communication matrices they recover, their runtime overhead, and the
// placements they produce.
//
// Run with:
//
//	go run ./examples/detection_comparison
package main

import (
	"fmt"
	"log"

	"spcd"
)

func main() {
	mach := spcd.DefaultMachine()
	w, err := spcd.NPB("SP", 32, spcd.ClassTiny)
	if err != nil {
		log.Fatal(err)
	}
	truth := spcd.TraceCommunication(w, mach, 1)

	fmt.Println("detecting SP's communication pattern with three mechanisms")
	fmt.Println("(similarity = Pearson correlation with the full-trace ground truth)")
	fmt.Println()
	fmt.Printf("%-6s %-12s %-10s %-12s %-11s %s\n",
		"", "similarity", "exec (s)", "detect ovh", "migrations", "needs")
	needs := map[string]string{
		"spcd": "kernel module only (the paper's point)",
		"tlb":  "hardware-readable TLBs (x86 would need changes)",
		"hwc":  "PMU events; blind to locally-resolved sharing",
	}
	var matrices []*spcd.CommMatrix
	var labels []string
	for _, name := range []string{"spcd", "tlb", "hwc"} {
		m, err := spcd.Run(mach, w, name, 1)
		if err != nil {
			log.Fatal(err)
		}
		sim := 0.0
		if m.CommMatrix != nil {
			sim = m.CommMatrix.Similarity(truth)
			matrices = append(matrices, m.CommMatrix)
			labels = append(labels, name)
		}
		fmt.Printf("%-6s %-12.3f %-10.6f %-11.2f%% %-11d %s\n",
			name, sim, m.ExecSeconds, m.DetectionOverheadPct, m.Migrations, needs[name])
	}

	fmt.Println("\ndetected matrices side by side (ground truth last):")
	matrices = append(matrices, truth)
	labels = append(labels, "trace (truth)")
	fmt.Print(spcd.RenderHeatmaps(labels, matrices))
}
