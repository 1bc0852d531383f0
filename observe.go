package netdimm

import (
	"io"
	"time"

	"netdimm/internal/experiments"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
)

// Observation carries the instrumentation collected by one observed run:
// per-packet lifecycle spans (exported as Chrome trace-event JSON loadable
// in ui.perfetto.dev) and the metrics registry. A nil Observation — what
// the Run*Observed entry points return when cfg.Obs is zero — is safe to
// query and reports nothing collected.
type Observation struct {
	o *obs.Observer
}

func newObservation(o *obs.Observer) *Observation {
	if o == nil {
		return nil
	}
	return &Observation{o: o}
}

// Enabled reports whether the run collected any instrumentation.
func (ob *Observation) Enabled() bool { return ob != nil && ob.o != nil }

// WriteTrace writes the collected spans and series as Chrome trace-event
// JSON (open the file in ui.perfetto.dev or chrome://tracing). Writing a
// disabled observation produces a valid, empty trace.
func (ob *Observation) WriteTrace(w io.Writer) error {
	if !ob.Enabled() {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[]}`+"\n")
		return err
	}
	return ob.o.WriteTrace(w)
}

// HasMetrics reports whether any metric was registered.
func (ob *Observation) HasMetrics() bool { return ob.Enabled() && ob.o.HasMetrics() }

// MetricsTable renders every collected counter, gauge and series as an
// aligned text table ("" when nothing was collected).
func (ob *Observation) MetricsTable() string {
	if !ob.HasMetrics() {
		return ""
	}
	return ob.o.MetricsTable()
}

// MetricsCSV renders the same rows as CSV ("" when nothing was collected).
func (ob *Observation) MetricsCSV() string {
	if !ob.HasMetrics() {
		return ""
	}
	return ob.o.MetricsCSV()
}

// RunFig11Observed is RunFig11WithConfig with the observability plane
// armed per cfg.Obs: with tracing on, each packet size becomes one trace
// process whose per-component span sums reconstruct the reported Fig. 11
// breakdown; with metrics on, substrate counters and series (PCIe link
// activity, NetDIMM rank occupancy, nMC queue depth, engine event volume)
// fold into the observation. A zero cfg.Obs returns a nil Observation and
// output identical to RunFig11WithConfig.
func RunFig11Observed(cfg Config, sizes []int, switchLatency time.Duration, parallelism int) (_ []Fig11Result, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(sizes) == 0 {
		sizes = experiments.PaperSizes
	}
	rows, o, err := experiments.Fig11Observed(cfg, sizes, sim.FromDuration(switchLatency), parallelism, cfg.Obs)
	return rows, newObservation(o), err
}

// RunFaultSweepObserved measures one-way latency degradation under
// injected frame loss for dNIC, iNIC and NetDIMM on the system described
// by cfg. rates are the injected per-traversal loss probabilities (nil
// uses a representative sweep from lossless to 20%); packets is the
// delivery count per cell (0 = 200). Only the drop probability is swept;
// every other fault knob — corruption, port drops, NVDIMM-P RDY loss, the
// retry/backoff policy — comes from cfg.Fault, so a lossy scenario shapes
// the whole sweep. A configuration that cannot make progress (for example
// 100% loss with an unlimited retry budget) is terminated by the per-cell
// event-budget watchdog and reported as an error rather than hanging.
//
// Besides the rows it returns the per-architecture cross-rate latency
// tails merged from every cell's samples, and an Observation armed per
// cfg.Obs (retransmit/backoff and NVDIMM-P recovery spans, path outcome
// counters, fault tallies, engine probes; nil when cfg.Obs is zero).
func RunFaultSweepObserved(cfg Config, rates []float64, packets int, seed uint64, parallelism int) (_ []FaultSweepResult, _ []FaultTailResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if len(rates) == 0 {
		rates = defaultLossRates
	}
	fcfg := experiments.DefaultFaultSweepConfig()
	fcfg.Packets = packets
	fcfg.Seed = seed
	rows, o, err := experiments.FaultSweepObserved(cfg, rates, fcfg, parallelism, cfg.Obs)
	if err != nil {
		return nil, nil, nil, err
	}
	return rows, experiments.FaultTails(rows), newObservation(o), nil
}

// RunMixedChannelObserved demonstrates, on the system described by cfg,
// that a NetDIMM's non-deterministic local accesses coexist with
// deterministic DDR accesses on one channel (paper Sec. 2.2/4.1), over n
// reads (0 = 200). The observability plane is armed per cfg.Obs: DDR
// controller transaction spans and queue depth, NetDIMM device metrics,
// the NVDIMM-P outstanding-transaction series and an engine probe, all
// under one "mixed" cell. A zero cfg.Obs returns a nil Observation and
// unchanged output.
func RunMixedChannelObserved(cfg Config, n int, seed uint64) (_ MixedChannelResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return MixedChannelResult{}, nil, err
	}
	r, o, err := experiments.MixedChannelObserved(cfg, n, seed, cfg.Obs)
	return r, newObservation(o), err
}
