package netdimm

import (
	"time"

	"netdimm/internal/experiments"
	"netdimm/internal/sim"
)

// FailSweepResult is one (architecture, outage duration) cell of the
// failure sweep: how the cell absorbed a scheduled spine outage — the
// failover record, the ARQ recovery record, and the latency tail split by
// whether the packet was delivered before, during or after the outage
// window.
type FailSweepResult = experiments.FailRow

// RunFailSweepObserved runs the failure sweep on the system described by
// cfg: for each architecture and outage duration, 32 hosts on a
// 2-spine/4-leaf clos exchange cluster-mix traffic at 8% offered load
// while one spine is down for the given window, ECMP fails flows over to
// the surviving spine, and every sender recovers lost frames through the
// NIC's ack-timeout ARQ. outages is the duration axis (nil = {0, 5µs,
// 20µs, 60µs}; 0 is the baseline), packets the total arrival count per
// cell (0 = 2400). The traffic shape and sharding come from cfg.Load (a
// zero Hosts means 32), the clos shape from cfg.Fabric (zero = 2 spines ×
// 4 leaves), and any background failure schedule — extra outage windows,
// burst loss — plus the ARQ retry knobs from cfg.Fault.
//
// The observability plane is armed per cfg.Obs: with metrics on, each cell
// publishes delivery, drop, reroute and retransmit counters plus engine
// probes. A zero cfg.Obs returns a nil Observation and unchanged output.
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
	rows, o, err := experiments.FailSweepObserved(cfg, axis, fcfg, parallelism, cfg.Obs)
	return rows, newObservation(o), err
}
