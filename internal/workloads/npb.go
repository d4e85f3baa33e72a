package workloads

import "fmt"

// The synthetic NPB kernels. Parameters are chosen to reproduce the
// communication classes the paper observes in Figure 7:
//
//   - BT, SP, LU: 2D domain decomposition, strong neighbour communication
//     (heterogeneous). SP communicates the most — it shows the paper's
//     largest mapping gains.
//   - UA: unstructured mesh, strong irregular neighbour communication
//     (heterogeneous).
//   - MG: multigrid, neighbour plus exponentially distant partners
//     (heterogeneous).
//   - CG, DC: slight neighbour pattern with low volume (weakly
//     heterogeneous).
//   - FT, IS: all-to-all through a global region, no pair structure
//     (homogeneous).
//   - EP: almost no communication (homogeneous, near-zero volume).
//
// The grid for 32 threads is 8 x 4, mirroring how NPB decomposes.

// NPBNames lists the ten kernels in the paper's order.
var NPBNames = []string{"BT", "CG", "DC", "EP", "FT", "IS", "LU", "MG", "SP", "UA"}

// gridFor returns a near-square factorization rows x cols = n.
func gridFor(n int) (rows, cols int) {
	cols = 1
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			cols = f
		}
	}
	return n / cols, cols
}

// NewNPB constructs the named synthetic NPB kernel for the given thread
// count and class. It returns an error for unknown names.
func NewNPB(name string, threads int, class Class) (*Synth, error) {
	rows, cols := gridFor(threads)
	base := SynthSpec{KernelName: name, Threads: threads, Class: class, WriteRatio: 0.5}
	switch name {
	case "BT":
		base.Graph = Grid2D(rows, cols)
		base.PairRatio = 0.32
		base.GlobalRatio = 0.02
	case "SP":
		base.Graph = Grid2D(rows, cols)
		base.PairRatio = 0.40
		base.GlobalRatio = 0.02
	case "LU":
		base.Graph = Grid2D(rows, cols)
		base.PairRatio = 0.30
		base.GlobalRatio = 0.02
	case "UA":
		base.Graph = Irregular(3)
		base.PairRatio = 0.34
		base.GlobalRatio = 0.02
	case "MG":
		base.Graph = Multigrid
		base.PairRatio = 0.28
		base.GlobalRatio = 0.03
	case "CG":
		base.Graph = Ring1D
		base.PairRatio = 0.10
		base.GlobalRatio = 0.03
		base.DurationScale = 0.25 // CG is the paper's shortest benchmark
	case "DC":
		base.Graph = Pipeline
		base.PairRatio = 0.08
		base.GlobalRatio = 0.04
		base.DurationScale = 2.5 // DC is by far the longest benchmark
	case "FT":
		base.Graph = nil
		base.PairRatio = 0
		base.GlobalRatio = 0.30 // all-to-all transpose traffic
	case "IS":
		base.Graph = nil
		base.PairRatio = 0
		base.GlobalRatio = 0.18 // bucketed key exchange
		base.DurationScale = 0.5
	case "EP":
		base.Graph = nil
		base.PairRatio = 0
		base.GlobalRatio = 0.002 // only the final reduction is shared
	default:
		return nil, fmt.Errorf("workloads: unknown NPB kernel %q", name)
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return NewSynth(base), nil
}

// ByName builds one kernel of a suite: "nas" (NewNPB), "parsec"
// (NewParsec) or "pc", the producer/consumer benchmark of §V-B in four
// equal phases, which takes no kernel name.
func ByName(suite, kernel string, threads int, class Class) (Workload, error) {
	var (
		w   Workload
		err error
	)
	switch suite {
	case "nas":
		w, err = NewNPB(kernel, threads, class)
	case "parsec":
		w, err = NewParsec(kernel, threads, class)
	case "pc":
		w, err = NewProducerConsumer(threads, class, 4, class.Accesses/4)
	default:
		err = fmt.Errorf("workloads: unknown suite %q (want nas, parsec, pc)", suite)
	}
	if err != nil {
		return nil, err // not w: a typed nil pointer would compare non-nil
	}
	return w, nil
}

// SuiteKernels returns the kernels of a suite: NPBNames for "nas",
// ParsecNames for "parsec". Any other suite is an error naming it.
func SuiteKernels(suite string) ([]string, error) {
	switch suite {
	case "nas":
		return NPBNames, nil
	case "parsec":
		return ParsecNames, nil
	}
	return nil, fmt.Errorf("workloads: unknown suite %q (want nas or parsec)", suite)
}

// HeterogeneousKernels lists the kernels the paper classifies as having a
// heterogeneous communication pattern (Table II).
var HeterogeneousKernels = map[string]bool{
	"BT": true, "CG": true, "DC": true, "LU": true, "MG": true, "SP": true, "UA": true,
}
