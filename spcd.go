// Package spcd is the public API of the SPCD reproduction: Shared Pages
// Communication Detection and communication-based thread mapping (Diener,
// Cruz, Navaux — "Communication-Based Mapping Using Shared Pages", IPPS
// 2013), implemented on a simulated NUMA machine.
//
// The package wires together the internal substrates — machine topology,
// MMU, coherent cache hierarchy, the SPCD detector, Edmonds matching,
// scheduling policies, synthetic NPB workloads and the energy model — behind
// a small surface:
//
//	mach := spcd.DefaultMachine()
//	w, _ := spcd.NPB("SP", 32, spcd.ClassTiny)
//	res, _ := spcd.Experiment{
//	        Machine:  mach,
//	        Workload: w,
//	        Policies: []string{"os", "spcd"},
//	        Reps:     3,
//	}.Run()
//	fmt.Println(res.NormalizedMean("spcd", spcd.MetricTime, "os"))
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package spcd

import (
	"fmt"
	"io"

	"spcd/internal/commmatrix"
	"spcd/internal/engine"
	"spcd/internal/faultinject"
	"spcd/internal/heatmap"
	"spcd/internal/mapping"
	"spcd/internal/policy"
	"spcd/internal/topology"
	"spcd/internal/trace"
	"spcd/internal/workloads"
)

// Machine describes the simulated hardware platform (topology, caches,
// latencies). See DefaultMachine and NewMachine.
type Machine = topology.Machine

// DefaultMachine returns the paper's evaluation platform (Table I): two
// Intel Xeon E5-2650 sockets, 8 cores each, 2-way SMT, 2.0 GHz.
func DefaultMachine() *Machine { return topology.DefaultXeon() }

// NewMachine builds a machine with a custom shape and default cache
// geometry/latencies.
func NewMachine(sockets, coresPerSocket, threadsPerCore int) (*Machine, error) {
	return topology.New(sockets, coresPerSocket, threadsPerCore)
}

// ConfigureShootdown arms the machine's translation-coherence cost model
// from its CLI spelling: "none" (remaps are free — the default), "ipi"
// (software IPI shootdowns), or "hatric" (HATRIC-style hardware translation
// coherence). The cost parameters come from the machine's ShootdownCosts,
// which DefaultMachine pre-populates.
func ConfigureShootdown(m *Machine, mode string) error {
	sd, err := topology.ParseShootdownMode(mode)
	if err != nil {
		return err
	}
	m.Shootdown = sd
	return m.Validate()
}

// Workload is a parallel application the simulator can execute. Implement
// it (and optionally workloads.Initializer) to plug custom applications
// into the simulator; see examples/custom_workload.
type Workload = workloads.Workload

// WorkloadRun generates the deterministic access streams of one workload
// execution.
type WorkloadRun = workloads.Run

// Access is one memory reference issued by a workload thread.
type Access = workloads.Access

// Class scales a workload's footprint and duration.
type Class = workloads.Class

// Workload classes, from unit-test scale to NPB-class-A scale.
var (
	ClassTest  = workloads.ClassTest
	ClassTiny  = workloads.ClassTiny
	ClassSmall = workloads.ClassSmall
	ClassA     = workloads.ClassA
)

// ClassByName resolves a workload class by name: "test", "tiny", "small"
// or "A".
func ClassByName(name string) (Class, error) {
	switch name {
	case "test":
		return ClassTest, nil
	case "tiny":
		return ClassTiny, nil
	case "small":
		return ClassSmall, nil
	case "A", "a":
		return ClassA, nil
	}
	return Class{}, fmt.Errorf("spcd: unknown class %q (want test, tiny, small, A)", name)
}

// NPBNames lists the ten NAS kernels in the paper's order.
var NPBNames = workloads.NPBNames

// HeterogeneousKernels marks the kernels the paper classifies as having
// heterogeneous communication (Table II).
var HeterogeneousKernels = workloads.HeterogeneousKernels

// NPB constructs the named synthetic NAS kernel (BT, CG, DC, EP, FT, IS,
// LU, MG, SP, UA).
func NPB(name string, threads int, class Class) (Workload, error) {
	return workloads.NewNPB(name, threads, class)
}

// ParsecNames lists the PARSEC/SPLASH-style extension kernels
// (streamcluster, dedup, ferret, fluidanimate, canneal, x264).
var ParsecNames = workloads.ParsecNames

// Parsec constructs a named extension kernel from the PARSEC/SPLASH-style
// suite, whose communication shapes (notably multi-thread pipeline stages)
// differ from the NAS kernels'.
func Parsec(name string, threads int, class Class) (Workload, error) {
	return workloads.NewParsec(name, threads, class)
}

// ProducerConsumer constructs the two-phase verification benchmark of §V-B.
func ProducerConsumer(threads int, class Class, phases int, phaseLength uint64) (Workload, error) {
	return workloads.NewProducerConsumer(threads, class, phases, phaseLength)
}

// PolicyNames lists the four evaluated policies: "os", "random", "oracle",
// "spcd". Run also accepts the §VI-B comparators "tlb" and "hwc".
var PolicyNames = policy.Names

// Metrics is the outcome of one simulated run.
type Metrics = engine.Metrics

// RunOptions holds Run's optional settings. The zero value runs the
// sequential engine, fault-free and unobserved.
type RunOptions struct {
	// Shards selects the engine: 0 is the sequential engine; >= 1 runs the
	// epoch-sharded engine with that many intra-run workers, clamped to the
	// machine's core count; negative is an error. Sharded results are
	// byte-identical for every worker count, but they intentionally differ
	// from the sequential engine's: cross-core cache coherence and
	// page-fault effects land at epoch boundaries instead of instantly (see
	// DESIGN.md §13).
	Shards int
	// Faults is a fault-injection plan. Its fault sites fire at
	// deterministic virtual-time points derived from (plan seed, run seed),
	// and the policies degrade rather than fail. The zero plan is inactive.
	Faults FaultPlan
	// Probe, when non-nil, records the run's metrics time series and event
	// trace, fault-degradation decisions included. Export it afterwards
	// with WriteChromeTrace and WriteTimeSeriesCSV. One Probe observes
	// exactly one run.
	Probe *Probe
	// Runtime, when non-nil, records host wall-clock spans: run-level
	// phases for the sequential engine, per-worker per-epoch simulate /
	// barrier-wait / merge spans for the sharded one.
	Runtime *RuntimeCollector
}

// Run executes workload w on machine m under the named policy and returns
// the measured metrics. At most one RunOptions may be passed. Probes and
// runtime collectors only record: the returned Metrics are identical to an
// unobserved run's.
func Run(m *Machine, w Workload, policyName string, seed int64, opts ...RunOptions) (Metrics, error) {
	if len(opts) > 1 {
		return Metrics{}, fmt.Errorf("spcd: Run takes at most one RunOptions, got %d", len(opts))
	}
	var o RunOptions
	if len(opts) == 1 {
		o = opts[0]
	}
	if err := o.Faults.Validate(); err != nil {
		return Metrics{}, err
	}
	p, err := policy.Tuned(policyName, w, m)
	if err != nil {
		return Metrics{}, err
	}
	return engine.Run(engine.Config{Machine: m, Workload: w, Policy: p, Seed: seed,
		Shards: o.Shards, Probe: o.Probe, Injector: faultinject.NewInjector(o.Faults, seed),
		Runtime: o.Runtime.Proc("run " + w.Name())})
}

// CommMatrix is a symmetric thread-communication matrix.
type CommMatrix = commmatrix.Matrix

// TraceCommunication replays a run's full memory trace offline and returns
// the ground-truth communication matrix (the paper's oracle analysis).
func TraceCommunication(w Workload, m *Machine, seed int64) *CommMatrix {
	return trace.CommunicationMatrix(w, seed, m.PageSize)
}

// DetectCommunication executes the workload once under the SPCD policy and
// returns the communication matrix the mechanism detected online.
func DetectCommunication(w Workload, m *Machine, seed int64) (*CommMatrix, error) {
	metrics, err := Run(m, w, "spcd", seed)
	if err != nil {
		return nil, err
	}
	if metrics.CommMatrix == nil {
		return nil, fmt.Errorf("spcd: no communication matrix produced")
	}
	return metrics.CommMatrix, nil
}

// ComputeMapping derives a thread-to-context placement from a communication
// matrix with the paper's hierarchical Edmonds algorithm (§IV-B).
func ComputeMapping(mtx *CommMatrix, m *Machine) ([]int, error) {
	return mapping.Compute(mtx, m, nil)
}

// MappingCost evaluates a placement's communication cost under a matrix
// (lower is better); it is the objective the mapping minimizes.
func MappingCost(mtx *CommMatrix, m *Machine, affinity []int) float64 {
	return mapping.Cost(mtx, m, affinity)
}

// RenderHeatmap renders a communication matrix as an ASCII heatmap in the
// style of the paper's Figures 6 and 7.
func RenderHeatmap(mtx *CommMatrix) string { return heatmap.ASCII(mtx) }

// RenderHeatmaps renders several labeled matrices side by side.
func RenderHeatmaps(labels []string, ms []*CommMatrix) string {
	return heatmap.SideBySide(labels, ms)
}

// WriteHeatmapPGM writes a matrix as a binary PGM image (scale pixels per
// cell).
func WriteHeatmapPGM(w io.Writer, mtx *CommMatrix, scale int) error {
	return heatmap.WritePGM(w, mtx, scale)
}

// WriteHeatmapSVG writes a matrix as a publication-style SVG figure with
// axis labels, in the style of the paper's Figures 6/7.
func WriteHeatmapSVG(w io.Writer, mtx *CommMatrix, title string) error {
	return heatmap.WriteSVG(w, mtx, heatmap.SVGOptions{Title: title})
}

// WriteMatrixCSV serializes a communication matrix as CSV rows;
// ReadMatrixCSV parses it back. Use these to archive detected patterns or
// move them between tools.
func WriteMatrixCSV(w io.Writer, mtx *CommMatrix) error { return mtx.WriteCSV(w) }

// ReadMatrixCSV parses a matrix written by WriteMatrixCSV.
func ReadMatrixCSV(r io.Reader) (*CommMatrix, error) { return commmatrix.ReadCSV(r) }
