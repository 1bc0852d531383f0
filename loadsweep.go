package netdimm

import "netdimm/internal/experiments"

// LoadSweepResult is one (architecture, offered load) cell of the
// rack-scale load sweep: end-to-end latency statistics over delivered
// packets, plus the cell's congestion tallies.
type LoadSweepResult = experiments.LoadRow

// LoadKneeResult is one architecture's detected saturation point: the
// highest swept load whose p99 stayed within the configured knee factor of
// the lowest swept load's p99. Saturated is false when the grid never
// reached the knee; such a curve (including a single-load grid, which
// cannot bracket a knee) reports the explicit no-knee result Knee 0.
type LoadKneeResult = experiments.LoadKnee

// RunLoadSweepWithConfig runs the rack-scale open-loop load sweep on the
// system described by cfg: for each architecture (dNIC, iNIC, NetDIMM)
// and each offered load, eight sender hosts inject cluster-distributed
// traffic that fans in to one receiver through an output-queued switch,
// and the end-to-end latency distribution (mean/p50/p99/p999) is measured
// over every delivered packet. loads are fractions of the line rate (nil
// uses a default grid bracketing every architecture's knee); packets is
// the total arrival count per cell (0 = 2000). The traffic shape — sender host count (incast), cluster distribution,
// Poisson or fixed arrivals, egress buffering, knee factor — comes from
// cfg.Load; a zero Load block selects the sweep defaults. A configuration
// that cannot drain (for example a pathological buffer setting) is
// terminated by the per-cell event-budget watchdog and reported as an
// error rather than hanging.
func RunLoadSweepWithConfig(cfg Config, loads []float64, packets int, seed uint64, parallelism int) (_ []LoadSweepResult, _ []LoadKneeResult, err error) {
	rows, knees, _, err := RunLoadSweepObserved(cfg, loads, packets, seed, parallelism)
	return rows, knees, err
}

// RunLoadSweepObserved is RunLoadSweepWithConfig with the observability
// plane armed per cfg.Obs: with metrics on, each (arch, load) cell
// publishes its receiver queue-depth series, egress depth, delivery/drop
// counters, link utilisation and engine probes. A zero cfg.Obs returns a
// nil Observation and output identical to RunLoadSweepWithConfig.
func RunLoadSweepObserved(cfg Config, loads []float64, packets int, seed uint64, parallelism int) (_ []LoadSweepResult, _ []LoadKneeResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	lcfg := experiments.DefaultLoadSweepConfig()
	lcfg.Packets = packets
	lcfg.Seed = seed
	rows, knees, o, err := experiments.LoadSweepObserved(cfg, loads, lcfg, parallelism, cfg.Obs)
	return rows, knees, newObservation(o), err
}
