package spcd

import (
	"io"

	"spcd/internal/runtimeobs"
)

// RuntimeCollector records host-side wall-clock spans — where the *host*
// spends time running a simulation (shard-worker simulate phases, barrier
// waits, merge passes, sweep-pool occupancy) — as opposed to a Probe's
// virtual-time view of the simulated machine (see internal/runtimeobs).
//
// Attaching a collector never changes simulation results: the
// instrumentation is strictly one-way (simulation code emits host-time
// stamps into the collector and never reads one back; the
// runtimeobs-isolation spcdlint rule enforces this), so runtime-observed
// runs stay byte-identical to unobserved ones. A nil collector disables
// runtime observability at zero cost.
type RuntimeCollector = runtimeobs.Collector

// NewRuntimeCollector creates a host-time collector whose stamps count
// from now. One collector can observe many runs (a whole sweep).
func NewRuntimeCollector() *RuntimeCollector { return runtimeobs.New() }

// WriteRuntimeSummary exports the collector's derived diagnostics
// (barrier-stall fraction, load-imbalance ratio, merge share,
// critical-path attribution) as an indented JSON document.
func WriteRuntimeSummary(w io.Writer, rt *RuntimeCollector) error {
	return runtimeobs.WriteSummary(w, rt)
}
