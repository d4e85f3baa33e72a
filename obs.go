package spcd

import (
	"io"

	"spcd/internal/obs"
)

// Probe collects one run's observability data: a virtual-time metrics time
// series plus a structured event trace (see internal/obs). One Probe
// observes exactly one run; build a fresh one per simulation. A nil Probe
// disables observability at zero cost.
type Probe = obs.Probe

// ObsOptions configures a Probe (snapshot interval, trace clock).
type ObsOptions = obs.Options

// NewProbe creates an observability probe for one simulation run. The zero
// ObsOptions lets the engine choose the snapshot interval (~256 rows per
// run) and the simulated machine's clock for trace timestamps.
func NewProbe(opts ObsOptions) *Probe { return obs.New(opts) }

// WriteChromeTrace exports a probe's data in the Chrome trace_event JSON
// format, loadable in chrome://tracing or https://ui.perfetto.dev (see the
// README walkthrough).
func WriteChromeTrace(w io.Writer, pr *Probe) error { return obs.WriteChromeTrace(w, pr) }

// WriteTimeSeriesCSV exports a probe's sampled metrics registry as CSV:
// one row per snapshot, counters as per-interval deltas.
func WriteTimeSeriesCSV(w io.Writer, pr *Probe) error { return obs.WriteTimeSeriesCSV(w, pr) }

// TraceRun labels one run's probe for merged trace export.
type TraceRun = obs.TraceRun

// WriteChromeTraceMerged exports several runs' probes — a sweep's worth of
// experiments, say — into a single Chrome trace, each run in its own
// disjoint pid namespace so the runs appear as side-by-side process groups
// in chrome://tracing or Perfetto.
func WriteChromeTraceMerged(w io.Writer, runs []TraceRun) error {
	return obs.WriteChromeTraceMerged(w, runs)
}
