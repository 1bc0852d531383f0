package netdimm

import (
	"io"
	"time"

	"netdimm/internal/experiments"
	"netdimm/internal/sim"
)

// ReplayResult summarises one architecture over a replayed trace file.
type ReplayResult = experiments.ReplayResult

// ReplayTraceFileWithConfig replays a trace written by cmd/netdimm-trace
// through the clos fabric under all three architectures, on the system
// described by cfg. parallelism follows the convention of
// RunFig4WithConfig (each architecture is one cell).
func ReplayTraceFileWithConfig(cfg Config, r io.Reader, switchLatency time.Duration, seed uint64, parallelism int) (cluster string, results []ReplayResult, err error) {
	if err := cfg.Validate(); err != nil {
		return "", nil, err
	}
	h, rows, err := experiments.ReplayTraceFile(cfg, r, sim.FromDuration(switchLatency), seed, parallelism)
	if err != nil {
		return "", nil, err
	}
	return h.Cluster.String(), rows, nil
}

// MixedChannelResult reports the DDR5 mixed-channel demonstration: DDR and
// NetDIMM transactions sharing one channel via the asynchronous protocol.
type MixedChannelResult = experiments.MixedChannelResult
