package experiments

import (
	"time"

	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
	"netdimm/internal/workload"
)

// Fig12aRow is one (cluster, switch latency) cell of Fig. 12(a): mean
// per-packet one-way latency per architecture and NetDIMM's normalised
// latency against both baselines.
type Fig12aRow struct {
	Cluster       workload.Cluster `csv:"cluster"`
	SwitchLatency time.Duration    `csv:"switch_ns"`
	DNICMean      time.Duration    `csv:"dnic_mean_ns"`
	INICMean      time.Duration    `csv:"inic_mean_ns"`
	NetDIMMMean   time.Duration    `csv:"netdimm_mean_ns"`
	// NormVsDNIC is NetDIMM latency normalised to the dNIC configuration
	// (the Fig. 12a Y axis; lower is better); NormVsINIC the same against
	// iNIC. Both are ratios of the picosecond means.
	NormVsDNIC float64 `csv:"norm_dnic" fmt:"%.4f"`
	NormVsINIC float64 `csv:"norm_inic" fmt:"%.4f"`
}

// norm returns nd/base, or 0 when base is 0.
func norm(nd, base sim.Time) float64 {
	if base == 0 {
		return 0
	}
	return float64(nd) / float64(base)
}

// PaperSwitchLatencies are the values swept in Fig. 12(a).
var PaperSwitchLatencies = []sim.Time{
	25 * sim.Nanosecond, 50 * sim.Nanosecond, 100 * sim.Nanosecond, 200 * sim.Nanosecond,
}

// Fig12a replays n packets of each cluster's synthetic trace through the
// clos fabric for every switch latency, measuring the mean one-way
// per-packet latency under each NIC architecture. The clos switches are
// store-and-forward, so MTU-heavy traffic (hadoop) pays per-hop
// re-serialisation, reproducing the paper's cluster ordering.
func Fig12a(sp spec.Spec, clusters []workload.Cluster, switchLats []sim.Time, n int, seed uint64, parallelism int) ([]Fig12aRow, error) {
	return sweep(len(clusters)*len(switchLats), parallelism, func(idx int) (Fig12aRow, error) {
		return fig12aCell(sp.MustDerive(), clusters[idx/len(switchLats)], switchLats[idx%len(switchLats)], n, seed)
	})
}

// fig12aCell measures one (cluster, switch latency) grid point. Every cell
// regenerates its trace and machines from the same seed, so cells are
// fully independent of each other.
func fig12aCell(d *spec.Derived, cl workload.Cluster, sl sim.Time, n int, seed uint64) (Fig12aRow, error) {
	fabric := d.Fabric(sl)
	fabric.Switch.CutThrough = false

	events := workload.NewGenerator(cl, 0, seed).Generate(n)
	ndTX, err := d.NewNetDIMM(seed*2 + 1)
	if err != nil {
		return Fig12aRow{}, err
	}
	ndRX, err := d.NewNetDIMM(seed*2 + 2)
	if err != nil {
		return Fig12aRow{}, err
	}
	dn := d.NewDNIC(false)
	in := d.NewINIC(false)

	var dnSum, inSum, ndSum sim.Time
	for i, e := range events {
		p := e.Packet(uint64(i))
		wire := fabric.WireTime(e.Size, e.Locality)

		dnB := dn.TX(p)
		dnB.Add(stats.Wire, wire)
		dnSum += dnB.Plus(dn.RX(p)).Total()

		inB := in.TX(p)
		inB.Add(stats.Wire, wire)
		inSum += inB.Plus(in.RX(p)).Total()

		ndB := ndTX.TX(p)
		ndB.Add(stats.Wire, wire)
		ndSum += ndB.Plus(ndRX.RX(p)).Total()
	}
	cnt := sim.Time(len(events))
	dnMean, inMean, ndMean := dnSum/cnt, inSum/cnt, ndSum/cnt
	return Fig12aRow{
		Cluster:       cl,
		SwitchLatency: sl.Duration(),
		DNICMean:      dnMean.Duration(),
		INICMean:      inMean.Duration(),
		NetDIMMMean:   ndMean.Duration(),
		NormVsDNIC:    norm(ndMean, dnMean),
		NormVsINIC:    norm(ndMean, inMean),
	}, nil
}

// Fig12aAverages reduces rows to the paper's summary form: the average
// NetDIMM latency reduction vs dNIC per switch latency, across clusters
// ("40.6%, 36.0%, 33.1%, and 25.3% when switch latency is 25, 50, 100, and
// 200ns").
func Fig12aAverages(rows []Fig12aRow) map[time.Duration]float64 {
	sums := map[time.Duration]float64{}
	counts := map[time.Duration]int{}
	for _, r := range rows {
		sums[r.SwitchLatency] += 1 - r.NormVsDNIC
		counts[r.SwitchLatency]++
	}
	out := make(map[time.Duration]float64, len(sums))
	for k, v := range sums {
		out[k] = v / float64(counts[k])
	}
	return out
}
