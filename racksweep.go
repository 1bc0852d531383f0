package netdimm

import "netdimm/internal/experiments"

// RackSweepResult is one (architecture, racks, ECN, offered load) cell of
// the rack-count sweep: end-to-end latency statistics over delivered
// packets, plus the cell's fabric tallies.
type RackSweepResult = experiments.RackRow

// RackKneeResult is one (arch, racks, ECN) curve's detected saturation
// point: the highest swept load whose p99 stayed within the configured
// knee factor of the lowest swept load's p99. Saturated is false when the
// grid never reached the knee; such a curve (including a single-load
// grid, which cannot bracket a knee) reports the explicit no-knee result
// Knee 0.
type RackKneeResult = experiments.RackKnee

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
	rows, knees, o, err := experiments.RackSweepObserved(cfg, racks, loads, rcfg, parallelism, cfg.Obs)
	return rows, knees, newObservation(o), err
}
