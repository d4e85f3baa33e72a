// Command commviz reproduces the communication-pattern figures of the
// paper: the four producer/consumer matrices of Figure 6 (phase 1, phase 2,
// transition, overall) and the ten NAS matrices of Figure 7. Matrices are
// rendered as ASCII heatmaps on stdout and, optionally, as PGM images.
//
// Usage:
//
//	commviz -fig pc            # Figure 6
//	commviz -fig nas           # Figure 7
//	commviz -fig nas -out dir  # also write dir/<kernel>.pgm
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"spcd"
	"spcd/internal/cli"
	"spcd/internal/commmatrix"
	"spcd/internal/engine"
	"spcd/internal/policy"
	"spcd/internal/workloads"
)

func main() {
	o := &cli.Options{Flags: cli.Class | cli.Threads | cli.Seed, ClassName: "tiny", Threads: 32, Seed: 1}
	o.Register(flag.CommandLine)
	fig := flag.String("fig", "pc", "figure to reproduce: pc (Fig. 6) or nas (Fig. 7)")
	out := flag.String("out", "", "directory for PGM images (optional)")
	o.Parse()

	if *out != "" {
		cli.Check(os.MkdirAll(*out, 0o755))
	}
	switch *fig {
	case "pc":
		cli.Check(figure6(o, *out))
	case "nas":
		cli.Check(figure7(o, *out))
	default:
		cli.Fatal(fmt.Errorf("unknown figure %q (want pc or nas)", *fig))
	}
}

// figure6 runs the two-phase producer/consumer benchmark under SPCD and
// captures the detected matrix during each phase, at the transition, and
// accumulated over the whole run (detection without aging) — the four
// panels of Figure 6.
func figure6(o *cli.Options, out string) error {
	mach, seed := o.Machine(), o.Seed
	// Four equal phases: the snapshot fractions below assume them.
	w, err := workloads.ByName("pc", "", o.Threads, o.Class())
	if err != nil {
		return err
	}

	// Pass 1: dynamic detection with aging; snapshot the matrix at every
	// evaluation and keep the ones nearest to the midpoints of phase 1 and
	// phase 2 and to the first transition.
	type snap struct {
		now uint64
		m   *commmatrix.Matrix
	}
	var snaps []snap
	opts := policy.TunedSPCDOptions(w, mach)
	opts.OnEvaluate = func(now uint64, m *commmatrix.Matrix) {
		snaps = append(snaps, snap{now, m})
	}
	p := policy.NewSPCD(opts)
	metrics, err := engine.Run(engine.Config{Machine: mach, Workload: w, Policy: p, Seed: seed})
	if err != nil {
		return err
	}
	if len(snaps) < 3 {
		return fmt.Errorf("only %d matrix snapshots captured; run too short", len(snaps))
	}
	// Snapshot times are expressed as fractions of the parallel span
	// (first evaluation with detected events to end of run); the serial
	// initialization prologue is excluded.
	appStart := snaps[0].now
	for _, s := range snaps {
		if s.m.Total() > 0 {
			appStart = s.now
			break
		}
	}
	exec := metrics.ExecCycles
	span := float64(exec - appStart)
	nearest := func(frac float64) *commmatrix.Matrix {
		target := appStart + uint64(frac*span)
		best := snaps[0]
		for _, s := range snaps {
			if diff(s.now, target) < diff(best.now, target) {
				best = s
			}
		}
		return best.m
	}
	phase1 := nearest(0.13) // middle of phase 1 (of 4 equal phases)
	trans := nearest(0.30)  // just after the first phase change
	phase2 := nearest(0.38) // middle of phase 2

	// Pass 2: detection without aging gives the overall pattern a static
	// mechanism would see (Fig. 6d).
	opts2 := policy.TunedSPCDOptions(w, mach)
	opts2.DecayFactor = 1
	p2 := policy.NewSPCD(opts2)
	m2, err := engine.Run(engine.Config{Machine: mach, Workload: w, Policy: p2, Seed: seed})
	if err != nil {
		return err
	}
	overall := m2.CommMatrix

	fmt.Println("Figure 6 — producer/consumer communication matrices detected by SPCD")
	fmt.Println("(darker = more communication; phase 1 pairs neighbours, phase 2 pairs distant threads)")
	fmt.Println()
	labels := []string{"(a) phase 1", "(b) phase 2", "(c) transition", "(d) overall"}
	ms := []*commmatrix.Matrix{phase1, phase2, trans, overall}
	fmt.Print(spcd.RenderHeatmaps(labels, ms))

	if out != "" {
		files := []string{"fig6a_phase1.pgm", "fig6b_phase2.pgm", "fig6c_transition.pgm", "fig6d_overall.pgm"}
		for i, f := range files {
			if err := writePGM(filepath.Join(out, f), ms[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// figure7 detects and renders the communication pattern of every NAS
// kernel, with its heterogeneity classification.
func figure7(o *cli.Options, out string) error {
	mach, seed := o.Machine(), o.Seed
	fmt.Println("Figure 7 — NAS communication matrices detected by SPCD")
	for _, name := range spcd.NPBNames {
		w, err := spcd.NPB(name, o.Threads, o.Class())
		if err != nil {
			return err
		}
		det, err := spcd.DetectCommunication(w, mach, seed)
		if err != nil {
			return err
		}
		truth := spcd.TraceCommunication(w, mach, seed)
		class := "homogeneous"
		if spcd.HeterogeneousKernels[name] {
			class = "heterogeneous"
		}
		fmt.Printf("\n%s (%s; pattern heterogeneity %.2f, detection similarity to ground truth %.2f)\n",
			name, class, truth.Heterogeneity(), det.Similarity(truth))
		fmt.Print(spcd.RenderHeatmap(det))
		if out != "" {
			if err := writePGM(filepath.Join(out, "fig7_"+name+".pgm"), det); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePGM writes both a PGM raster and an SVG vector version of the
// matrix (the .pgm extension is replaced by .svg for the latter).
func writePGM(path string, m *commmatrix.Matrix) error {
	if err := cli.WriteFile(path, func(w io.Writer) error { return spcd.WriteHeatmapPGM(w, m, 8) }); err != nil {
		return err
	}
	base := strings.TrimSuffix(path, filepath.Ext(path))
	return cli.WriteFile(base+".svg", func(w io.Writer) error {
		return spcd.WriteHeatmapSVG(w, m, filepath.Base(base))
	})
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
