package netdimm

import (
	"io"
	"time"

	"netdimm/internal/experiments"
	"netdimm/internal/obs"
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
	rows, o, err := experiments.Fig11Observed(cfg.spec(), sizes, simT(switchLatency), parallelism, cfg.Obs)
	if err != nil {
		return nil, nil, err
	}
	out := make([]Fig11Result, len(rows))
	for i, r := range rows {
		out[i] = Fig11Result{
			Size:            r.Size,
			DNIC:            fromBreakdown(r.DNIC),
			INIC:            fromBreakdown(r.INIC),
			NetDIMM:         fromBreakdown(r.NetDIMM),
			ReductionVsDNIC: r.ReductionVsDNIC(),
			ReductionVsINIC: r.ReductionVsINIC(),
		}
	}
	return out, newObservation(o), nil
}

// FaultTailResult is one architecture's latency tail over every loss rate
// of a fault sweep, merged from the per-cell sample sets.
type FaultTailResult struct {
	Arch  string
	Count int
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
}

// RunFaultSweepObserved is RunFaultSweepWithConfig with the observability
// plane armed per cfg.Obs (retransmit/backoff and NVDIMM-P recovery spans,
// path outcome counters, fault tallies, engine probes), plus the
// per-architecture cross-rate latency tails merged from every cell's
// histogram. Tails are returned regardless of cfg.Obs; the Observation is
// nil when cfg.Obs is zero.
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
	rows, o, err := experiments.FaultSweepObserved(cfg.spec(), rates, fcfg, parallelism, cfg.Obs)
	if err != nil {
		return nil, nil, nil, err
	}
	out := make([]FaultSweepResult, len(rows))
	for i, r := range rows {
		out[i] = FaultSweepResult{
			Arch:      r.Arch,
			LossRate:  r.LossRate,
			Mean:      toDuration(r.Mean),
			P50:       toDuration(r.P50),
			P99:       toDuration(r.P99),
			Delivered: r.Delivered,
			Failed:    r.Failed,
			Counters:  r.Counters,
		}
	}
	var tails []FaultTailResult
	for _, t := range experiments.FaultTails(rows) {
		tails = append(tails, FaultTailResult{
			Arch:  t.Arch,
			Count: t.Count,
			Mean:  toDuration(t.Mean),
			P50:   toDuration(t.P50),
			P99:   toDuration(t.P99),
		})
	}
	return out, tails, newObservation(o), nil
}

// RunMixedChannelObserved is RunMixedChannelWithConfig with the
// observability plane armed per cfg.Obs: DDR controller transaction spans
// and queue depth, NetDIMM device metrics, the NVDIMM-P
// outstanding-transaction series and an engine probe, all under one
// "mixed" cell. A zero cfg.Obs returns a nil Observation and output
// identical to RunMixedChannelWithConfig.
func RunMixedChannelObserved(cfg Config, n int, seed uint64) (_ MixedChannelResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return MixedChannelResult{}, nil, err
	}
	r, o, err := experiments.MixedChannelObserved(cfg.spec(), n, seed, cfg.Obs)
	if err != nil {
		return MixedChannelResult{}, nil, err
	}
	return MixedChannelResult{
		DDRReads:          r.DDRReads,
		NetDIMMReads:      r.NetDIMMReads,
		DDRMean:           toDuration(r.DDRMeanLatency),
		NetDIMMMean:       toDuration(r.NetDIMMMean),
		OutOfOrder:        r.OutOfOrder,
		MaxOutstandingIDs: r.MaxOutstandingIDs,
	}, newObservation(o), nil
}
