package netdimm

import "netdimm/internal/experiments"

// CollSweepResult is one (architecture, operation, rank count) cell of the
// collective-communication sweep: the makespan of one Ring AllReduce, tree
// Broadcast or Reduce-Scatter over the fabric, with per-step skew and the
// cell's wire tallies.
type CollSweepResult = experiments.CollRow

// RunCollSweepWithConfig runs the collective sweep on the system described
// by cfg: for each architecture, operation and rank count, the ranks run
// the collective as an event-driven dependency graph over the fabric and
// the makespan, per-step skew and wire tallies are measured. Every cell
// also verifies the result vectors against a sequential reference
// reduction. ranks is the rank-count axis (nil = {4, 8, 16, 32, 64, 128}),
// ops selects operations (nil = all three). The collective shape — operation, rank count, payload and chunk bytes —
// comes from cfg.Collective when the axis arguments are nil/zero; port
// buffering and sharding come from cfg.Load. A cell that drops a frame
// deadlocks its dependency graph and is reported as a diagnostic error
// naming the stuck rank.
func RunCollSweepWithConfig(cfg Config, ranks []int, ops []string, seed uint64, parallelism int) (_ []CollSweepResult, err error) {
	rows, _, err := RunCollSweepObserved(cfg, ranks, ops, seed, parallelism)
	return rows, err
}

// RunCollSweepObserved is RunCollSweepWithConfig with the observability
// plane armed per cfg.Obs: with metrics on, each cell publishes delivery
// and mark counters, completion/skew/utilization gauges and engine probes;
// with tracing on, each cell carries one track per rank with a span per
// schedule step. A zero cfg.Obs returns a nil Observation and output
// identical to RunCollSweepWithConfig.
func RunCollSweepObserved(cfg Config, ranks []int, ops []string, seed uint64, parallelism int) (_ []CollSweepResult, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	ccfg := experiments.DefaultCollSweepConfig()
	ccfg.Seed = seed
	rows, o, err := experiments.CollSweepObserved(cfg, ranks, ops, ccfg, parallelism, cfg.Obs)
	return rows, newObservation(o), err
}
