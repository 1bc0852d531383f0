package netdimm

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"netdimm/internal/driver"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/stats"
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
	d, err := cfg.derive()
	if err != nil {
		return nil, err
	}
	return &Machine{impl: d.NewDNIC(zeroCopy)}, nil
}

// NewINICWithConfig builds a server with a CPU-integrated NIC from a
// configuration, optionally with a zero-copy driver.
func NewINICWithConfig(cfg Config, zeroCopy bool) (*Machine, error) {
	d, err := cfg.derive()
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
	d, err := cfg.derive()
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
// components of the paper's Fig. 11.
type LatencyBreakdown struct {
	TxCopy       time.Duration `csv:"txCopy_ns"`
	RxCopy       time.Duration `csv:"rxCopy_ns"`
	TxDMA        time.Duration `csv:"txDMA_ns"`
	RxDMA        time.Duration `csv:"rxDMA_ns"`
	Wire         time.Duration `csv:"wire_ns"`
	IOReg        time.Duration `csv:"ioReg_ns"`
	TxFlush      time.Duration `csv:"txFlush_ns"`
	RxInvalidate time.Duration `csv:"rxInvalidate_ns"`
	Total        time.Duration `csv:"total_ns"`
}

func toDuration(t sim.Time) time.Duration {
	return time.Duration(int64(t) / int64(sim.Nanosecond))
}

func fromBreakdown(b stats.Breakdown) LatencyBreakdown {
	return LatencyBreakdown{
		TxCopy:       toDuration(b[stats.TxCopy]),
		RxCopy:       toDuration(b[stats.RxCopy]),
		TxDMA:        toDuration(b[stats.TxDMA]),
		RxDMA:        toDuration(b[stats.RxDMA]),
		Wire:         toDuration(b[stats.Wire]),
		IOReg:        toDuration(b[stats.IOReg]),
		TxFlush:      toDuration(b[stats.TxFlush]),
		RxInvalidate: toDuration(b[stats.RxInvalidate]),
		Total:        toDuration(b.Total()),
	}
}

// String renders the non-zero components, then the total, named as their
// CSV columns without the _ns suffix.
func (l LatencyBreakdown) String() string {
	s := ""
	v := reflect.ValueOf(l)
	for _, c := range csvColumns(v.Type()) {
		d := v.FieldByIndex(c.index).Interface().(time.Duration)
		if name := strings.TrimSuffix(c.name, "_ns"); d > 0 || name == "total" {
			s += fmt.Sprintf("%s=%v ", name, d)
		}
	}
	return strings.TrimSuffix(s, " ")
}

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
	d, err := cfg.derive()
	if err != nil {
		return LatencyBreakdown{}, err
	}
	fabric := d.Fabric(sim.FromDuration(switchLatency))
	b := driver.OneWay(tx.impl, rx.impl, nic.Packet{Size: packetSize}, fabric)
	return fromBreakdown(b), nil
}
