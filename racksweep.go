package netdimm

import (
	"time"

	"netdimm/internal/experiments"
)

// RackSweepResult is one (architecture, racks, ECN, offered load) cell of
// the rack-count sweep: end-to-end latency statistics over delivered
// packets, plus the cell's fabric tallies.
type RackSweepResult struct {
	Arch string `csv:"arch"`
	// Racks is the leaf count of the cell's leaf/spine clos.
	Racks int `csv:"racks"`
	// ECN reports whether the cell ran with marking and sender backoff.
	ECN bool `csv:"ecn"`
	// OfferedLoad is each host's injected fraction of its own line rate.
	OfferedLoad float64       `csv:"offered_load"`
	Mean        time.Duration `csv:"mean_ns"`
	P50         time.Duration `csv:"p50_ns"`
	P99         time.Duration `csv:"p99_ns"`
	P999        time.Duration `csv:"p999_ns"`
	// Delivered counts packets that completed end to end; Dropped counts
	// frames tail-dropped at any hop (uplink, leaf or spine queue).
	Delivered int `csv:"delivered"`
	Dropped   int `csv:"dropped"`
	// Marked counts frames freshly ECN-marked at any fabric queue.
	Marked int `csv:"marked"`
	// CrossRack counts packets whose destination lay in another rack (and
	// therefore crossed the spine layer).
	CrossRack int `csv:"cross_rack"`
	// LeafMaxDepth and SpineMaxDepth are the deepest output queues seen at
	// each fabric layer.
	LeafMaxDepth  int `csv:"leaf_max_depth"`
	SpineMaxDepth int `csv:"spine_max_depth"`
	// RxMaxDepth is the deepest receiver driver queue across all hosts.
	RxMaxDepth int `csv:"rx_max_depth"`
	// LinkUtilization is delivered wire occupancy averaged over all host
	// links and the cell's makespan, in [0,1].
	LinkUtilization float64 `csv:"link_util" fmt:"%.4f"`
}

// RackKneeResult is one (arch, racks, ECN) curve's detected saturation
// point: the highest swept load whose p99 stayed within the configured
// knee factor of the lowest swept load's p99. Saturated is false when the
// grid never reached the knee; such a curve (including a single-load
// grid, which cannot bracket a knee) reports the explicit no-knee result
// Knee 0.
type RackKneeResult struct {
	Arch      string
	Racks     int
	ECN       bool
	Knee      float64
	Saturated bool
}

// RunRackSweepWithConfig runs the rack-count sweep on the system described
// by cfg: for each architecture, rack count and ECN setting, 256 hosts
// spread over a leaf/spine clos exchange cluster-mix traffic (destinations
// follow the published flow-locality shares, so most database traffic
// crosses the spine layer) and the end-to-end latency distribution is
// measured over every delivered packet. racks is the leaf-count axis (nil
// = {2, 4, 8}), loads are per-host fractions of the line rate (nil = a
// geometric grid bracketing each architecture's knee), packets is the
// total arrival count per cell (0 = 4000). The traffic shape — host count, cluster distribution, arrival process,
// port buffering, knee factor, sharding — comes from cfg.Load (a zero
// Hosts means 256); the clos shape and ECN tuning come from cfg.Fabric (a
// pinned Leaves replaces the racks axis, a set ECNThreshold tunes the
// sweep's ECN-on cells). A configuration that cannot drain is terminated
// by the per-cell event-budget watchdog and reported as an error.
func RunRackSweepWithConfig(cfg Config, racks []int, loads []float64, packets int, seed uint64, parallelism int) (_ []RackSweepResult, _ []RackKneeResult, err error) {
	rows, knees, _, err := RunRackSweepObserved(cfg, racks, loads, packets, seed, parallelism)
	return rows, knees, err
}

// RunRackSweepObserved is RunRackSweepWithConfig with the observability
// plane armed per cfg.Obs: with metrics on, each cell publishes delivery,
// drop and mark counters, fabric depth gauges and engine probes. A zero
// cfg.Obs returns a nil Observation and output identical to
// RunRackSweepWithConfig.
func RunRackSweepObserved(cfg Config, racks []int, loads []float64, packets int, seed uint64, parallelism int) (_ []RackSweepResult, _ []RackKneeResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	rcfg := experiments.DefaultRackSweepConfig()
	rcfg.Packets = packets
	rcfg.Seed = seed
	rows, knees, o, err := experiments.RackSweepObserved(cfg.spec(), racks, loads, rcfg, parallelism, cfg.Obs)
	if err != nil {
		return nil, nil, nil, err
	}
	out := make([]RackSweepResult, len(rows))
	for i, r := range rows {
		out[i] = RackSweepResult{
			Arch:            r.Arch,
			Racks:           r.Racks,
			ECN:             r.ECN,
			OfferedLoad:     r.Load,
			Mean:            toDuration(r.Mean),
			P50:             toDuration(r.P50),
			P99:             toDuration(r.P99),
			P999:            toDuration(r.P999),
			Delivered:       r.Delivered,
			Dropped:         r.Dropped,
			Marked:          r.Marked,
			CrossRack:       r.CrossRack,
			LeafMaxDepth:    r.LeafMaxDepth,
			SpineMaxDepth:   r.SpineMaxDepth,
			RxMaxDepth:      r.RxMaxDepth,
			LinkUtilization: r.LinkUtilization,
		}
	}
	kout := make([]RackKneeResult, len(knees))
	for i, k := range knees {
		kout[i] = RackKneeResult{Arch: k.Arch, Racks: k.Racks, ECN: k.ECN, Knee: k.Knee, Saturated: k.Saturated}
	}
	return out, kout, newObservation(o), nil
}
