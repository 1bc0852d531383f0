package netdimm

import (
	"time"

	"netdimm/internal/experiments"
	"netdimm/internal/sim"
)

// FailSweepResult is one (architecture, outage duration) cell of the
// failure sweep: how the cell absorbed a scheduled spine outage — the
// failover record, the ARQ recovery record, and the latency tail split by
// whether the packet was born before, during or after the outage window.
type FailSweepResult struct {
	Arch string `csv:"arch"`
	// Outage is the swept spine-down window length; 0 is the baseline cell.
	Outage time.Duration `csv:"outage_ns"`
	// Delivered counts packets that completed end to end (a packet
	// delivered through a retransmission counts once); Failed counts
	// packets abandoned at the retry cap.
	Delivered int `csv:"delivered"`
	Failed    int `csv:"failed"`
	// Dropped counts frames lost anywhere before recovery: queue tail
	// drops, down-element drops, burst losses and downed-uplink refusals.
	Dropped int `csv:"dropped"`
	// OutageDrops counts frames eaten by a down element (in-flight frames
	// included); BurstDrops frames lost to the Gilbert–Elliott process;
	// Rerouted frames ECMP steered off their primary spine; Degraded
	// frames forced onto the single-path fallback.
	OutageDrops uint64 `csv:"outage_drops"`
	BurstDrops  uint64 `csv:"burst_drops"`
	Rerouted    uint64 `csv:"rerouted"`
	Degraded    uint64
	// Retransmits counts ARQ retransmissions; Recovered counts packets
	// that delivered only through a retransmitted frame.
	Retransmits uint64 `csv:"retransmits"`
	Recovered   int    `csv:"recovered"`
	// TimeToReroute is the delay from outage start to the first failover
	// routing decision, or -1 when nothing was rerouted.
	TimeToReroute time.Duration `csv:"reroute_ns"`
	// MeanRecovery is the mean end-to-end latency of Recovered packets.
	MeanRecovery time.Duration `csv:"mean_recovery_ns"`
	// DuringOffered / DuringDelivered count packets born inside the outage
	// window and how many of them still delivered.
	DuringOffered   int `csv:"during_offered"`
	DuringDelivered int `csv:"during_delivered"`
	// End-to-end latency percentiles by delivery instant relative to the
	// outage window (zero when the window saw no deliveries).
	P99Before  time.Duration `csv:"p99_before_ns"`
	P999Before time.Duration
	P99During  time.Duration `csv:"p99_during_ns"`
	P999During time.Duration
	P99After   time.Duration `csv:"p99_after_ns"`
	P999After  time.Duration `csv:"p999_after_ns"`
	// TailInflation is P99After / P99Before — post-recovery tail inflation.
	TailInflation float64 `csv:"tail_inflation" fmt:"%.3f"`
}

// RunFailSweepWithConfig runs the failure sweep on the system described by
// cfg: for each architecture and outage duration, 32 hosts on a
// 2-spine/4-leaf clos exchange cluster-mix traffic at 30% offered load
// while one spine is down for the given window, ECMP fails flows over to
// the surviving spine, and every sender recovers lost frames through the
// NIC's ack-timeout ARQ. outages is the duration axis (nil = {0, 5µs,
// 20µs, 60µs}; 0 is the baseline), packets the total arrival count per
// cell (0 = 2400). The traffic shape and sharding come from cfg.Load (a
// zero Hosts means 32), the clos shape from cfg.Fabric (zero = 2 spines ×
// 4 leaves), and any background failure schedule — extra outage windows,
// burst loss — plus the ARQ retry knobs from cfg.Fault.
func RunFailSweepWithConfig(cfg Config, outages []time.Duration, packets int, seed uint64, parallelism int) (_ []FailSweepResult, err error) {
	rows, _, err := RunFailSweepObserved(cfg, outages, packets, seed, parallelism)
	return rows, err
}

// RunFailSweepObserved is RunFailSweepWithConfig with the observability
// plane armed per cfg.Obs: with metrics on, each cell publishes delivery,
// drop, reroute and retransmit counters plus engine probes. A zero
// cfg.Obs returns a nil Observation and output identical to
// RunFailSweepWithConfig.
func RunFailSweepObserved(cfg Config, outages []time.Duration, packets int, seed uint64, parallelism int) (_ []FailSweepResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	var axis []sim.Time
	if outages != nil {
		axis = make([]sim.Time, len(outages))
		for i, d := range outages {
			axis[i] = sim.FromDuration(d)
		}
	}
	fcfg := experiments.DefaultFailSweepConfig()
	fcfg.Packets = packets
	fcfg.Seed = seed
	rows, o, err := experiments.FailSweepObserved(cfg.spec(), axis, fcfg, parallelism, cfg.Obs)
	if err != nil {
		return nil, nil, err
	}
	out := make([]FailSweepResult, len(rows))
	for i, r := range rows {
		ttr := time.Duration(-1)
		if r.TimeToReroute >= 0 {
			ttr = toDuration(r.TimeToReroute)
		}
		out[i] = FailSweepResult{
			Arch:            r.Arch,
			Outage:          toDuration(r.Outage),
			Delivered:       r.Delivered,
			Failed:          r.Failed,
			DuringOffered:   r.DuringOffered,
			DuringDelivered: r.DuringDelivered,
			Dropped:         r.Dropped,
			OutageDrops:     r.OutageDrops,
			BurstDrops:      r.BurstDrops,
			Rerouted:        r.Rerouted,
			Degraded:        r.Degraded,
			Retransmits:     r.Retransmits,
			Recovered:       r.Recovered,
			TimeToReroute:   ttr,
			MeanRecovery:    toDuration(r.MeanRecovery),
			P99Before:       toDuration(r.P99Before),
			P999Before:      toDuration(r.P999Before),
			P99During:       toDuration(r.P99During),
			P999During:      toDuration(r.P999During),
			P99After:        toDuration(r.P99After),
			P999After:       toDuration(r.P999After),
			TailInflation:   r.TailInflation,
		}
	}
	return out, newObservation(o), nil
}
