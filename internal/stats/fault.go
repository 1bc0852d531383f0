package stats

import (
	"fmt"
	"strings"
)

// FaultCounters tallies injected faults and the recovery work they caused
// over one run. The fault injector increments the injection counters; the
// recovery engines (NIC retransmitter, NVDIMM-P async reader) increment the
// recovery ones, so a row of experiment output can report both sides of
// every fault.
type FaultCounters struct {
	// Retransmits counts NIC retransmission attempts.
	Retransmits uint64 `csv:"retransmits"`
	// FramesDropped counts frames lost on a link traversal.
	FramesDropped uint64 `csv:"frames_dropped"`
	// FramesCorrupted counts frames discarded by the receiver's FCS check.
	FramesCorrupted uint64 `csv:"frames_corrupted"`
	// PortDrops counts injected switch-port tail drops.
	PortDrops uint64
	// DeliveryFailures counts frames abandoned after the retry cap.
	DeliveryFailures uint64
	// MemTimeouts counts NVDIMM-P transactions whose RDY was lost.
	MemTimeouts uint64
	// MemRetries counts memory transactions re-issued after a timeout.
	MemRetries uint64 `csv:"mem_retries"`
	// MemFailures counts memory transactions abandoned after the retry cap.
	MemFailures uint64
}

// Merge accumulates o into c.
func (c *FaultCounters) Merge(o FaultCounters) {
	c.FramesDropped += o.FramesDropped
	c.FramesCorrupted += o.FramesCorrupted
	c.PortDrops += o.PortDrops
	c.Retransmits += o.Retransmits
	c.DeliveryFailures += o.DeliveryFailures
	c.MemTimeouts += o.MemTimeouts
	c.MemRetries += o.MemRetries
	c.MemFailures += o.MemFailures
}

// Injected returns the total number of injected faults.
func (c FaultCounters) Injected() uint64 {
	return c.FramesDropped + c.FramesCorrupted + c.PortDrops + c.MemTimeouts
}

// Any reports whether any counter is nonzero.
func (c FaultCounters) Any() bool { return c != FaultCounters{} }

// String renders the nonzero counters compactly.
func (c FaultCounters) String() string {
	if !c.Any() {
		return "no faults"
	}
	var parts []string
	add := func(name string, v uint64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("dropped", c.FramesDropped)
	add("corrupted", c.FramesCorrupted)
	add("portDrops", c.PortDrops)
	add("retransmits", c.Retransmits)
	add("deliveryFailures", c.DeliveryFailures)
	add("memTimeouts", c.MemTimeouts)
	add("memRetries", c.MemRetries)
	add("memFailures", c.MemFailures)
	return strings.Join(parts, " ")
}
