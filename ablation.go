package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/experiments"
)

// BandwidthResult reports the Sec. 5.2 sustained-throughput check for one
// architecture.
type BandwidthResult struct {
	Arch            string
	OfferedGbps     float64
	AchievedGbps    float64
	PerPacketRx     time.Duration
	ChannelHeadroom float64
	Sustained       bool
}

// RunBandwidthWithConfig streams MTU frames at line rate through each
// architecture on the system described by cfg (its link rate and
// local-channel bandwidth) and reports whether it sustains the offered
// rate (paper Sec. 5.2: all three do; the NetDIMM's single local channel
// has ample headroom). parallelism follows the convention of
// RunFig4WithConfig.
func RunBandwidthWithConfig(cfg Config, packets int, parallelism int) (_ []BandwidthResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rows, err := experiments.Bandwidth(cfg.spec(), packets, parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]BandwidthResult, len(rows))
	for i, r := range rows {
		out[i] = BandwidthResult{
			Arch:            r.Arch,
			OfferedGbps:     r.OfferedGbps,
			AchievedGbps:    r.AchievedGbps,
			PerPacketRx:     toDuration(r.PerPacketRx),
			ChannelHeadroom: r.ChannelHeadroom,
			Sustained:       r.Sustained(),
		}
	}
	return out, nil
}

// AblationReport bundles the design-choice ablation studies: what each
// NetDIMM mechanism contributes (Sec. 4's design decisions).
type AblationReport struct {
	Prefetch    []PrefetchAblation
	Clone       []CloneAblation
	Alloc       []AllocAblation
	HeaderCache []HeaderCacheAblation
}

// AblationRow is one line of the ablation CSV: the study, the variant it
// measured, that variant's latency and, for studies that have one, its
// rate (hit rate or FPM rate).
type AblationRow struct {
	Section string        `csv:"section"`
	Variant string        `csv:"variant"`
	Latency time.Duration `csv:"latency_ns"`
	Rate    *float64      `csv:"rate" fmt:"%.4f"`
}

// rows flattens the report into its CSV rows.
func (rep AblationReport) rows() []AblationRow {
	var out []AblationRow
	for _, r := range rep.Prefetch {
		out = append(out, AblationRow{"prefetch", fmt.Sprintf("degree-%d", r.Degree), r.MeanReadLat, &r.HitRate})
	}
	for _, r := range rep.Clone {
		out = append(out, AblationRow{"clone", r.Strategy, r.PerClone, nil})
	}
	for _, r := range rep.Alloc {
		out = append(out, AblationRow{"alloc", r.Strategy, r.PerAlloc, &r.FPMRate})
	}
	for _, r := range rep.HeaderCache {
		out = append(out, AblationRow{"headercache", r.Strategy, r.HeaderRead, &r.HitRate})
	}
	return out
}

// PrefetchAblation is payload-read behaviour at one nPrefetcher degree.
type PrefetchAblation struct {
	Degree      int
	HitRate     float64
	MeanReadLat time.Duration
}

// CloneAblation compares buffer-copy strategies for one MTU packet.
type CloneAblation struct {
	Strategy string
	PerClone time.Duration
}

// AllocAblation compares DMA-buffer allocation strategies.
type AllocAblation struct {
	Strategy string
	PerAlloc time.Duration
	FPMRate  float64
}

// HeaderCacheAblation compares header-read latency with/without nCache.
type HeaderCacheAblation struct {
	Strategy   string
	HeaderRead time.Duration
	HitRate    float64
}

// RunAblationsWithConfig runs all four ablation studies on the system
// described by cfg. parallelism follows the convention of
// RunFig4WithConfig; the clone and alloc studies are inherently sequential
// and ignore it.
func RunAblationsWithConfig(cfg Config, parallelism int) (_ AblationReport, err error) {
	defer guard(&err)
	var rep AblationReport
	if err := cfg.Validate(); err != nil {
		return rep, err
	}
	sp := cfg.spec()
	for _, r := range experiments.PrefetchAblation(sp, nil, 0, parallelism) {
		rep.Prefetch = append(rep.Prefetch, PrefetchAblation{
			Degree: r.Degree, HitRate: r.HitRate, MeanReadLat: toDuration(r.MeanReadLat),
		})
	}
	for _, r := range experiments.CloneAblation(sp) {
		rep.Clone = append(rep.Clone, CloneAblation{Strategy: r.Strategy, PerClone: toDuration(r.PerClone)})
	}
	allocRows, err := experiments.AllocAblation(sp, 0)
	if err != nil {
		return rep, err
	}
	for _, r := range allocRows {
		rep.Alloc = append(rep.Alloc, AllocAblation{
			Strategy: r.Strategy, PerAlloc: toDuration(r.PerAlloc), FPMRate: r.FPMRate,
		})
	}
	for _, r := range experiments.HeaderCacheAblation(sp, 0, parallelism) {
		rep.HeaderCache = append(rep.HeaderCache, HeaderCacheAblation{
			Strategy: r.Strategy, HeaderRead: toDuration(r.HeaderRead), HitRate: r.HitRate,
		})
	}
	return rep, nil
}
