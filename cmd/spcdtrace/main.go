// Command spcdtrace performs the offline memory-trace analysis the paper's
// oracle mapping uses (§V-D, following their ref. [6]): it replays a
// workload's full access streams, derives the ground-truth communication
// matrix, reports footprint and pattern statistics, and optionally writes
// the matrix as CSV and/or as an SVG heatmap.
//
// Usage:
//
//	spcdtrace -bench SP                       # print matrix + stats
//	spcdtrace -bench dedup -suite parsec      # extension suite
//	spcdtrace -bench UA -csv ua.csv -svg ua.svg
package main

import (
	"flag"
	"fmt"
	"io"

	"spcd"
	"spcd/internal/cli"
	"spcd/internal/mapping"
	"spcd/internal/trace"
)

func main() {
	o := &cli.Options{Flags: cli.Bench | cli.Suite | cli.Class | cli.Threads | cli.Seed,
		Bench: "SP", Suite: "nas", ClassName: "tiny", Threads: 32, Seed: 1}
	o.Register(flag.CommandLine)
	gran := o.Count("gran", 0, "analysis granularity in bytes (0 = machine page size)")
	csvPath := flag.String("csv", "", "write the matrix as CSV to this file")
	svgPath := flag.String("svg", "", "write the matrix as SVG to this file")
	o.Parse()

	mach, w := o.Machine(), o.Workload()
	granBytes := *gran
	if granBytes == 0 {
		granBytes = mach.PageSize
	}
	pages, accesses := trace.Footprint(w, o.Seed, granBytes)
	m := trace.CommunicationMatrix(w, o.Seed, granBytes)

	fmt.Printf("workload       %s (%s, class %s, %d threads)\n", w.Name(), o.Suite, o.ClassName, o.Threads)
	fmt.Printf("accesses       %d (%d per thread)\n", accesses, w.AccessesPerThread())
	fmt.Printf("footprint      %d regions of %d bytes (%.1f MByte)\n",
		pages, granBytes, float64(pages)*float64(granBytes)/(1<<20))
	fmt.Printf("communication  total %.0f, heterogeneity %.2f\n", m.Total(), m.Heterogeneity())

	aff, err := spcd.ComputeMapping(m, mach)
	if err == nil {
		cost, err := spcd.MappingCost(m, mach, aff)
		cli.Check(err)
		fmt.Printf("oracle cost    %.4g (scatter-relative %.2f)\n", cost, scatterRelative(m, mach, aff))
	}

	fmt.Println("\nground-truth communication matrix:")
	fmt.Print(spcd.RenderHeatmap(m))

	if *csvPath != "" {
		cli.Check(cli.WriteFile(*csvPath, func(f io.Writer) error { return spcd.WriteMatrixCSV(f, m) }))
	}
	if *svgPath != "" {
		cli.Check(cli.WriteFile(*svgPath, func(f io.Writer) error { return spcd.WriteHeatmapSVG(f, m, w.Name()) }))
	}
}

// scatterRelative returns cost(mapping)/cost(scatter placement).
func scatterRelative(m *spcd.CommMatrix, mach *spcd.Machine, aff []int) float64 {
	scatter := make([]int, m.N())
	// Identity placement as a neutral reference (thread i on context i).
	for i := range scatter {
		scatter[i] = i
	}
	base := mapping.Cost(m, mach, scatter)
	if base == 0 {
		return 1
	}
	return mapping.Cost(m, mach, aff) / base
}
