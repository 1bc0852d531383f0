package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/experiments"
	"netdimm/internal/netfunc"
	"netdimm/internal/sim"
	"netdimm/internal/workload"
)

// ClusterName identifies one of the three Facebook production cluster
// types whose traffic the trace experiments replay.
type ClusterName string

// The three clusters of Sec. 5.1.
const (
	Database  ClusterName = "database"
	Webserver ClusterName = "webserver"
	Hadoop    ClusterName = "hadoop"
)

// AllClusters lists the clusters in presentation order.
var AllClusters = []ClusterName{Database, Webserver, Hadoop}

// guard converts a panic escaping an experiment into an error, so the
// public WithConfig entry points never panic on caller input: a
// configuration that passes Validate but trips a deeper invariant (an
// address-map or derivation panic) surfaces as a returned error instead of
// crashing the caller. Every Run*WithConfig defers it over a named error
// return.
func guard(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if e, ok := r.(error); ok {
		*err = fmt.Errorf("netdimm: experiment failed: %w", e)
		return
	}
	*err = fmt.Errorf("netdimm: experiment failed: %v", r)
}

// Fig4Result is one row of the Fig. 4 motivation experiment.
type Fig4Result = experiments.Fig4Row

// RunFig4WithConfig regenerates Fig. 4 on the system described by cfg:
// one-way latency of the four baseline NIC configurations with the PCIe
// overhead share.
//
// parallelism fans the sweep's independent cells over worker goroutines:
// <= 0 uses all cores (runtime.GOMAXPROCS), 1 runs sequentially, N uses at
// most N workers. Results are identical for every setting. The same knob
// appears on every Run* sweep below.
func RunFig4WithConfig(cfg Config, sizes []int, switchLatency time.Duration, parallelism int) (_ []Fig4Result, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = experiments.PaperSizes
	}
	return experiments.Fig4(cfg, sizes, sim.FromDuration(switchLatency), parallelism), nil
}

// Fig5Result is one memory-pressure level of Fig. 5.
type Fig5Result = experiments.Fig5Row

// RunFig5WithConfig regenerates Fig. 5 on the system described by cfg (its
// DRAM timing, memory-controller config and link rate): iperf bandwidth
// under MLC-style memory pressure. A nil delay slice uses a representative
// sweep from idle to maximum pressure.
func RunFig5WithConfig(cfg Config, delays []time.Duration, parallelism int) (_ []Fig5Result, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var ds []sim.Time
	for _, d := range delays {
		ds = append(ds, sim.FromDuration(d))
	}
	return experiments.Fig5(cfg, ds, experiments.DefaultFig5Config(), parallelism), nil
}

// Fig7Result is one DMA memory request of the Fig. 7 locality study.
type Fig7Result = experiments.Fig7Point

// RunFig7WithConfig regenerates Fig. 7 on the system described by cfg (its
// link rate and PCIe DMA bandwidth): the per-cacheline DMA request trace
// of six received 1514B packets.
func RunFig7WithConfig(cfg Config) (_ []Fig7Result, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return experiments.Fig7(cfg), nil
}

// Fig11Result is one packet size's breakdown comparison.
type Fig11Result = experiments.Fig11Result

// Fig11Row is one (size, architecture) line of the Fig. 11 CSV.
type Fig11Row = experiments.Fig11Row

// RunFig11WithConfig regenerates Fig. 11 on the system described by cfg:
// the one-way latency breakdown of dNIC, iNIC and NetDIMM across packet
// sizes (nil = the paper's sizes).
func RunFig11WithConfig(cfg Config, sizes []int, switchLatency time.Duration, parallelism int) ([]Fig11Result, error) {
	rows, _, err := RunFig11Observed(cfg, sizes, switchLatency, parallelism)
	return rows, err
}

// Fig12aResult is one (cluster, switch latency) cell of Fig. 12(a).
type Fig12aResult = experiments.Fig12aRow

// RunFig12aWithConfig regenerates Fig. 12(a) on the system described by
// cfg: cluster trace replay across switch latencies. packets controls the
// trace length per cell (0 = 1000).
func RunFig12aWithConfig(cfg Config, packets int, seed uint64, parallelism int) (_ []Fig12aResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if packets <= 0 {
		packets = 1000
	}
	return experiments.Fig12a(cfg, workload.Clusters, experiments.PaperSwitchLatencies, packets, seed, parallelism)
}

// Fig12bResult is one (cluster, function) cell of Fig. 12(b).
type Fig12bResult = experiments.Fig12bRow

// RunFig12bWithConfig regenerates Fig. 12(b) on the system described by
// cfg: co-running application memory latency under DPI and L3F, NetDIMM
// normalised to iNIC.
func RunFig12bWithConfig(cfg Config, parallelism int) (_ []Fig12bResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return experiments.Fig12b(cfg, workload.Clusters,
		[]netfunc.Kind{netfunc.DPI, netfunc.L3F}, experiments.DefaultFig12bConfig(), parallelism), nil
}

// HeadlineResult carries the abstract's summary numbers as measured.
type HeadlineResult = experiments.Headline

// RunHeadlineWithConfig measures the paper's headline numbers on the
// system described by cfg.
func RunHeadlineWithConfig(cfg Config, packets int, parallelism int) (_ HeadlineResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return HeadlineResult{}, err
	}
	if packets <= 0 {
		packets = 500
	}
	return experiments.RunHeadline(cfg, packets, parallelism)
}

// GenerateTrace produces a deterministic synthetic trace for a cluster:
// n events with the published size and locality distributions. An unknown
// cluster name is an error.
func GenerateTrace(cluster ClusterName, n int, seed uint64) ([]TraceEvent, error) {
	cl, err := workload.ParseCluster(string(cluster))
	if err != nil {
		return nil, fmt.Errorf("netdimm: %w", err)
	}
	events := workload.NewGenerator(cl, 0, seed).Generate(n)
	out := make([]TraceEvent, len(events))
	for i, e := range events {
		out[i] = TraceEvent{
			At:       e.At.Duration(),
			Size:     e.Size,
			Locality: e.Locality.String(),
		}
	}
	return out, nil
}

// TraceEvent is one packet arrival of a generated trace.
type TraceEvent struct {
	At       time.Duration
	Size     int
	Locality string
}
