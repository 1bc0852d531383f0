package netdimm

import (
	"time"

	"netdimm/internal/stats"
)

// FaultCounters tallies injected faults and recovery actions for one sweep
// cell; it re-exports the internal stats type.
type FaultCounters = stats.FaultCounters

// FaultSweepResult is one (architecture, loss rate) cell of the fault
// sweep: one-way latency statistics over delivered packets plus the cell's
// fault and recovery counters.
type FaultSweepResult struct {
	Arch      string        `csv:"arch"`
	LossRate  float64       `csv:"loss_rate"`
	Mean      time.Duration `csv:"mean_ns"`
	P50       time.Duration `csv:"p50_ns"`
	P99       time.Duration `csv:"p99_ns"`
	Delivered int           `csv:"delivered"`
	Failed    int           `csv:"failed"`
	Counters  FaultCounters
}

// defaultLossRates is the fault sweep's default loss axis: lossless to 20%.
var defaultLossRates = []float64{0, 0.001, 0.01, 0.05, 0.1, 0.2}

// RunFaultSweepWithConfig measures one-way latency degradation under
// injected frame loss for dNIC, iNIC and NetDIMM on the system described
// by cfg. rates are the injected per-traversal loss probabilities (nil
// uses a representative sweep from lossless to 20%); packets is the
// delivery count per cell (0 = 200). Only the drop probability is swept;
// every other fault knob — corruption, port drops, NVDIMM-P RDY loss, the
// retry/backoff policy — comes from cfg.Fault, so a lossy scenario shapes
// the whole sweep. A configuration that cannot make progress (for example
// 100% loss with an unlimited retry budget) is terminated by the per-cell
// event-budget watchdog and reported as an error rather than hanging.
func RunFaultSweepWithConfig(cfg Config, rates []float64, packets int, seed uint64, parallelism int) ([]FaultSweepResult, error) {
	rows, _, _, err := RunFaultSweepObserved(cfg, rates, packets, seed, parallelism)
	return rows, err
}
