package workloads

// Extension suite: synthetic stand-ins for representative PARSEC/SPLASH-2
// applications. The paper's related work (refs. [19], [20]) characterizes
// the communication behaviour of these suites; reproducing their structural
// variety exercises mapping policies on shapes the NAS kernels do not have —
// most importantly multi-thread pipeline *stages* (dedup, ferret) where
// communication couples groups rather than pairs.

// ParsecNames lists the extension kernels.
var ParsecNames = []string{"streamcluster", "dedup", "ferret", "fluidanimate", "canneal", "x264"}

// StagePipeline partitions n threads into the given number of stages and
// connects every thread to all threads of the adjacent stages — the
// queue-coupled thread-pool structure of dedup and ferret. Weight is spread
// so each stage boundary carries similar total volume regardless of stage
// width.
func StagePipeline(stages int) CommGraph {
	return func(t, n int) []PeerWeight {
		if stages < 2 || n < stages {
			return nil
		}
		stageOf := func(th int) int { return th * stages / n }
		s := stageOf(t)
		var out []PeerWeight
		for peer := 0; peer < n; peer++ {
			if peer == t {
				continue
			}
			ps := stageOf(peer)
			if ps == s-1 || ps == s+1 {
				out = append(out, PeerWeight{Peer: peer, Weight: 1})
			}
		}
		for i := range out {
			out[i].Weight = 1 / float64(len(out))
		}
		return out
	}
}

// NewParsec constructs the named extension kernel for the given thread
// count and class.
func NewParsec(name string, threads int, class Class) (*Synth, error) {
	rows, cols := gridFor(threads)
	base := SynthSpec{KernelName: name, Threads: threads, Class: class, WriteRatio: 0.5}
	switch name {
	case "streamcluster":
		// Small hot shared working set (cluster centers) read by all,
		// written by few: all-to-all through the global region.
		base.Graph = nil
		base.PairRatio = 0
		base.GlobalRatio = 0.25
		base.WriteRatio = 0.2
	case "dedup":
		// Four-stage deduplication pipeline with queue coupling.
		base.Graph = StagePipeline(4)
		base.PairRatio = 0.22
		base.GlobalRatio = 0.03
	case "ferret":
		// Six-stage similarity-search pipeline.
		base.Graph = StagePipeline(6)
		base.PairRatio = 0.26
		base.GlobalRatio = 0.02
	case "fluidanimate":
		// Spatial grid decomposition, strong neighbour exchange.
		base.Graph = Grid2D(rows, cols)
		base.PairRatio = 0.30
		base.GlobalRatio = 0.02
	case "canneal":
		// Sparse random element swaps: weak irregular pair traffic plus
		// scattered global accesses.
		base.Graph = Irregular(2)
		base.PairRatio = 0.08
		base.GlobalRatio = 0.08
		base.WriteRatio = 0.35
	case "x264":
		// Frame pipeline with motion search into the previous frames:
		// ring neighbours dominate, second neighbours contribute.
		base.Graph = Multigrid
		base.PairRatio = 0.24
		base.GlobalRatio = 0.02
	default:
		return nil, errUnknownParsec(name)
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return NewSynth(base), nil
}

type errUnknownParsec string

func (e errUnknownParsec) Error() string {
	return "workloads: unknown PARSEC kernel \"" + string(e) + "\""
}
