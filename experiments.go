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

func (c ClusterName) internal() workload.Cluster {
	switch c {
	case Webserver:
		return workload.Webserver
	case Hadoop:
		return workload.Hadoop
	default:
		return workload.Database
	}
}

// NFKind identifies a network function for the interference study.
type NFKind string

// The two functions bracketing the packet-processing spectrum.
const (
	L3Forwarding NFKind = "L3F"
	DeepInspect  NFKind = "DPI"
)

func (k NFKind) internal() netfunc.Kind {
	if k == DeepInspect {
		return netfunc.DPI
	}
	return netfunc.L3F
}

func simT(d time.Duration) sim.Time { return sim.FromDuration(d) }

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
type Fig4Result struct {
	Size          int           `csv:"size"`
	DNIC          time.Duration `csv:"dnic_ns"`
	DNICZcpy      time.Duration `csv:"dnic_zcpy_ns"`
	INIC          time.Duration `csv:"inic_ns"`
	INICZcpy      time.Duration `csv:"inic_zcpy_ns"`
	PCIeShare     float64       `csv:"pcie_share" fmt:"%.4f"`
	PCIeShareZcpy float64       `csv:"pcie_share_zcpy" fmt:"%.4f"`
}

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
	rows := experiments.Fig4(cfg.spec(), sizes, simT(switchLatency), parallelism)
	out := make([]Fig4Result, len(rows))
	for i, r := range rows {
		out[i] = Fig4Result{
			Size:          r.Size,
			DNIC:          toDuration(r.DNIC),
			DNICZcpy:      toDuration(r.DNICZcpy),
			INIC:          toDuration(r.INIC),
			INICZcpy:      toDuration(r.INICZcpy),
			PCIeShare:     r.PCIeShare,
			PCIeShareZcpy: r.PCIeShareZcpy,
		}
	}
	return out, nil
}

// Fig5Result is one memory-pressure level of Fig. 5.
type Fig5Result struct {
	InjectDelay   time.Duration `csv:"inject_delay_ns"`
	BandwidthGbps float64       `csv:"gbps" fmt:"%.2f"`
	MemReadNs     float64       `csv:"mem_read_ns" fmt:"%.1f"`
}

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
	if len(delays) == 0 {
		ds = []sim.Time{
			sim.Second, // no interference
			2 * sim.Microsecond, 500 * sim.Nanosecond, 100 * sim.Nanosecond,
			50 * sim.Nanosecond, 20 * sim.Nanosecond, 10 * sim.Nanosecond, 5 * sim.Nanosecond,
		}
	} else {
		for _, d := range delays {
			ds = append(ds, simT(d))
		}
	}
	rows := experiments.Fig5(cfg.spec(), ds, experiments.DefaultFig5Config(), parallelism)
	out := make([]Fig5Result, len(rows))
	for i, r := range rows {
		out[i] = Fig5Result{
			InjectDelay:   toDuration(r.InjectDelay),
			BandwidthGbps: r.BandwidthGbps,
			MemReadNs:     r.MemReadNs,
		}
	}
	return out, nil
}

// Fig7Result is one DMA memory request of the Fig. 7 locality study.
type Fig7Result struct {
	RelCacheline int           `csv:"rel_cacheline"`
	RelTime      time.Duration `csv:"rel_time_ns"`
	Burst        int           `csv:"burst"`
}

// RunFig7WithConfig regenerates Fig. 7 on the system described by cfg (its
// link rate and PCIe DMA bandwidth): the per-cacheline DMA request trace
// of six received 1514B packets.
func RunFig7WithConfig(cfg Config) (_ []Fig7Result, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pts := experiments.Fig7(cfg.spec())
	out := make([]Fig7Result, len(pts))
	for i, p := range pts {
		out[i] = Fig7Result{RelCacheline: p.RelLine, RelTime: toDuration(p.RelTime), Burst: p.Burst}
	}
	return out, nil
}

// Fig11Result is one packet size's breakdown comparison.
type Fig11Result struct {
	Size            int
	DNIC            LatencyBreakdown
	INIC            LatencyBreakdown
	NetDIMM         LatencyBreakdown
	ReductionVsDNIC float64
	ReductionVsINIC float64
}

// Fig11Row is one (size, architecture) line of the Fig. 11 CSV.
type Fig11Row struct {
	Size int    `csv:"size"`
	Arch string `csv:"arch"`
	LatencyBreakdown
}

// RunFig11WithConfig regenerates Fig. 11 on the system described by cfg:
// the one-way latency breakdown of dNIC, iNIC and NetDIMM across packet
// sizes (nil = the paper's sizes).
func RunFig11WithConfig(cfg Config, sizes []int, switchLatency time.Duration, parallelism int) ([]Fig11Result, error) {
	rows, _, err := RunFig11Observed(cfg, sizes, switchLatency, parallelism)
	return rows, err
}

// Fig12aResult is one (cluster, switch latency) cell of Fig. 12(a).
type Fig12aResult struct {
	Cluster       ClusterName   `csv:"cluster"`
	SwitchLatency time.Duration `csv:"switch_ns"`
	DNICMean      time.Duration `csv:"dnic_mean_ns"`
	INICMean      time.Duration `csv:"inic_mean_ns"`
	NetDIMMMean   time.Duration `csv:"netdimm_mean_ns"`
	NormVsDNIC    float64       `csv:"norm_dnic" fmt:"%.4f"`
	NormVsINIC    float64       `csv:"norm_inic" fmt:"%.4f"`
}

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
	rows, err := experiments.Fig12a(cfg.spec(), workload.Clusters, experiments.PaperSwitchLatencies, packets, seed, parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]Fig12aResult, len(rows))
	for i, r := range rows {
		out[i] = Fig12aResult{
			Cluster:       ClusterName(r.Cluster.String()),
			SwitchLatency: toDuration(r.SwitchLatency),
			DNICMean:      toDuration(r.DNICMean),
			INICMean:      toDuration(r.INICMean),
			NetDIMMMean:   toDuration(r.NetDIMMMean),
			NormVsDNIC:    r.NormVsDNIC(),
			NormVsINIC:    r.NormVsINIC(),
		}
	}
	return out, nil
}

// Fig12bResult is one (cluster, function) cell of Fig. 12(b).
type Fig12bResult struct {
	Cluster   ClusterName `csv:"cluster"`
	Function  NFKind      `csv:"nf"`
	INICNs    float64     `csv:"inic_ns" fmt:"%.2f"`
	NetDIMMNs float64     `csv:"netdimm_ns" fmt:"%.2f"`
	Norm      float64     `csv:"norm" fmt:"%.4f"`
}

// RunFig12bWithConfig regenerates Fig. 12(b) on the system described by
// cfg: co-running application memory latency under DPI and L3F, NetDIMM
// normalised to iNIC.
func RunFig12bWithConfig(cfg Config, parallelism int) (_ []Fig12bResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rows := experiments.Fig12b(cfg.spec(), workload.Clusters,
		[]netfunc.Kind{netfunc.DPI, netfunc.L3F}, experiments.DefaultFig12bConfig(), parallelism)
	out := make([]Fig12bResult, len(rows))
	for i, r := range rows {
		out[i] = Fig12bResult{
			Cluster:   ClusterName(r.Cluster.String()),
			Function:  NFKind(r.Kind.String()),
			INICNs:    r.INICAppNs,
			NetDIMMNs: r.NetDIMMNs,
			Norm:      r.Norm(),
		}
	}
	return out, nil
}

// HeadlineResult carries the abstract's summary numbers as measured.
type HeadlineResult struct {
	AvgReductionVsDNIC     float64
	AvgReductionVsINIC     float64
	TraceReductionBySwitch map[time.Duration]float64
	DPIWorst               float64
	L3FBest                float64
}

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
	h, err := experiments.RunHeadline(cfg.spec(), packets, parallelism)
	if err != nil {
		return HeadlineResult{}, err
	}
	out := HeadlineResult{
		AvgReductionVsDNIC:     h.AvgReductionVsDNIC,
		AvgReductionVsINIC:     h.AvgReductionVsINIC,
		TraceReductionBySwitch: make(map[time.Duration]float64, len(h.TraceReductionBySwitch)),
		DPIWorst:               h.DPIWorst,
		L3FBest:                h.L3FBest,
	}
	for k, v := range h.TraceReductionBySwitch {
		out.TraceReductionBySwitch[toDuration(k)] = v
	}
	return out, nil
}

// GenerateTrace produces a deterministic synthetic trace for a cluster:
// n events with the published size and locality distributions.
func GenerateTrace(cluster ClusterName, n int, seed uint64) []TraceEvent {
	gen := workload.NewGenerator(cluster.internal(), 0, seed)
	events := gen.Generate(n)
	out := make([]TraceEvent, len(events))
	for i, e := range events {
		out[i] = TraceEvent{
			At:       toDuration(e.At),
			Size:     e.Size,
			Locality: e.Locality.String(),
		}
	}
	return out
}

// TraceEvent is one packet arrival of a generated trace.
type TraceEvent struct {
	At       time.Duration
	Size     int
	Locality string
}
