package netdimm

import (
	"fmt"
	"time"

	"netdimm/internal/driver"
	"netdimm/internal/experiments"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
)

// Machine is one simulated server endpoint with a particular NIC
// architecture. Machines are single-goroutine objects; build one per
// endpoint per experiment.
type Machine struct {
	impl driver.Machine
}

// Name reports the configuration ("dNIC", "dNIC.zcpy", "iNIC",
// "iNIC.zcpy", "NetDIMM").
func (m *Machine) Name() string { return m.impl.Name() }

// NewDNICWithConfig builds a server with a discrete x8 PCIe NIC from a
// configuration, optionally with a zero-copy driver: the PCIe attachment
// link and driver costs derive from cfg.
func NewDNICWithConfig(cfg Config, zeroCopy bool) (*Machine, error) {
	d, err := cfg.Derive()
	if err != nil {
		return nil, err
	}
	return &Machine{impl: d.NewDNIC(zeroCopy)}, nil
}

// NewINICWithConfig builds a server with a CPU-integrated NIC from a
// configuration, optionally with a zero-copy driver.
func NewINICWithConfig(cfg Config, zeroCopy bool) (*Machine, error) {
	d, err := cfg.Derive()
	if err != nil {
		return nil, err
	}
	return &Machine{impl: d.NewINIC(zeroCopy)}, nil
}

// NewNetDIMMWithConfig builds a NetDIMM server from a configuration:
// device, NET_0 memory zone, allocCache and the Algorithm 1 driver, with
// the device geometry, local DRAM timing and zone placement derived from
// cfg. The seed determines nCache replacement randomness; distinct
// endpoints should use distinct seeds.
func NewNetDIMMWithConfig(cfg Config, seed uint64) (*Machine, error) {
	d, err := cfg.Derive()
	if err != nil {
		return nil, err
	}
	nd, err := d.NewNetDIMM(seed)
	if err != nil {
		return nil, err
	}
	return &Machine{impl: nd}, nil
}

// LatencyBreakdown is a one-way packet latency decomposed into the
// components of the paper's Fig. 11, in whole nanoseconds.
type LatencyBreakdown = experiments.LatencyBreakdown

// OneWayLatencyWithConfig sends one packet of the given size from tx to rx
// through a single switch with the given port-to-port latency, over a
// fabric whose link rate and PHY model derive from cfg, and returns the
// latency decomposition. Repeated calls on stateful machines (NetDIMM)
// reflect warmed device state.
func OneWayLatencyWithConfig(cfg Config, tx, rx *Machine, packetSize int, switchLatency time.Duration) (LatencyBreakdown, error) {
	if packetSize <= 0 {
		return LatencyBreakdown{}, fmt.Errorf("netdimm: packet size must be positive, got %d", packetSize)
	}
	if tx == nil || rx == nil {
		return LatencyBreakdown{}, fmt.Errorf("netdimm: nil machine")
	}
	d, err := cfg.Derive()
	if err != nil {
		return LatencyBreakdown{}, err
	}
	fabric := d.Fabric(sim.FromDuration(switchLatency))
	b := driver.OneWay(tx.impl, rx.impl, nic.Packet{Size: packetSize}, fabric)
	return experiments.NewLatencyBreakdown(b), nil
}
