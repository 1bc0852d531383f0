package netdimm

import (
	"netdimm/internal/experiments"
	"netdimm/internal/stats"
)

// FaultCounters tallies injected faults and recovery actions for one sweep
// cell; it re-exports the internal stats type.
type FaultCounters = stats.FaultCounters

// FaultSweepResult is one (architecture, loss rate) cell of the fault
// sweep: one-way latency statistics over delivered packets plus the cell's
// fault and recovery counters.
type FaultSweepResult = experiments.FaultRow

// FaultTailResult is one architecture's latency tail over every loss rate
// of a fault sweep, merged from the per-cell sample sets.
type FaultTailResult = experiments.FaultTail

// defaultLossRates is the fault sweep's default loss axis: lossless to 20%.
var defaultLossRates = []float64{0, 0.001, 0.01, 0.05, 0.1, 0.2}
