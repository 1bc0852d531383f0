package experiments

import (
	"fmt"
	"io"
	"time"

	"netdimm/internal/driver"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
	"netdimm/internal/trace"
	"netdimm/internal/workload"
)

// ReplayResult summarises one architecture's run over a recorded trace.
type ReplayResult struct {
	Arch    string
	Packets int
	Mean    time.Duration
	P50     time.Duration
	P99     time.Duration
}

// ReplayTrace runs a recorded packet trace (from cmd/netdimm-trace, or any
// events slice) through the clos fabric under all three architectures and
// reports per-packet one-way latency statistics — the file-driven variant
// of Fig. 12(a).
func ReplayTrace(sp spec.Spec, events []workload.Event, switchLatency sim.Time, seed uint64, parallelism int) ([]ReplayResult, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("experiments: empty trace")
	}

	// Each architecture replays the whole trace on its own machines — an
	// independent cell; machines never interact across architectures.
	names := []string{"dNIC", "iNIC", "NetDIMM"}
	return sweep(len(names), parallelism, func(i int) (ReplayResult, error) {
		d := sp.MustDerive()
		fabric := d.Fabric(switchLatency)
		fabric.Switch.CutThrough = false
		var tx, rx driver.Machine
		switch names[i] {
		case "dNIC":
			m := d.NewDNIC(false)
			tx, rx = m, m
		case "iNIC":
			m := d.NewINIC(false)
			tx, rx = m, m
		default:
			ndTX, err := d.NewNetDIMM(seed + 1)
			if err != nil {
				return ReplayResult{}, err
			}
			ndRX, err := d.NewNetDIMM(seed + 2)
			if err != nil {
				return ReplayResult{}, err
			}
			tx, rx = ndTX, ndRX
		}
		var h stats.Histogram
		for j, e := range events {
			p := e.Packet(uint64(j))
			wire := fabric.WireTime(e.Size, e.Locality)
			h.Observe(tx.TX(p).Total() + wire + rx.RX(p).Total())
		}
		return ReplayResult{Arch: names[i], Packets: h.Count(), Mean: h.Mean().Duration(),
			P50: h.Percentile(50).Duration(), P99: h.Percentile(99).Duration()}, nil
	})
}

// ReplayTraceFile reads a trace stream and replays it.
func ReplayTraceFile(sp spec.Spec, r io.Reader, switchLatency sim.Time, seed uint64, parallelism int) (trace.Header, []ReplayResult, error) {
	h, events, err := trace.Read(r)
	if err != nil {
		return trace.Header{}, nil, err
	}
	res, err := ReplayTrace(sp, events, switchLatency, seed, parallelism)
	return h, res, err
}
