// Package netdimm is a discrete-event architectural simulator reproducing
// "NetDIMM: Low-Latency Near-Memory Network Interface Architecture"
// (Alian and Kim, MICRO 2019).
//
// NetDIMM integrates a full network interface into the buffer device of a
// DDR5 DIMM: the NIC shares the DIMM's local DRAM with the host through
// the NVDIMM-P asynchronous memory protocol, eliminating the PCIe
// interconnect from the packet path and replacing driver memory copies
// with in-DRAM RowClone buffer cloning. This package is the public facade
// over the simulator; the models live under internal/:
//
//	sim       — picosecond discrete-event kernel
//	addrmap   — physical address mapping (Fig. 9), flex interleaving (Fig. 10)
//	dram      — DDR4/DDR5 bank-state timing + RowClone FPM/PSM/GCM (Fig. 8)
//	memctrl   — FR-FCFS memory controller (host MCs and the nMC)
//	cache     — LLC with DDIO way restriction, flush/invalidate
//	pcie      — analytical PCIe model (TLPs, posted/non-posted)
//	nvdimmp   — DDR5 asynchronous XRD/RDY/SEND transactions (Fig. 3b)
//	kalloc    — Linux-like zones, NET_i zones, allocCache (Sec. 4.2)
//	nic       — descriptor rings, DMA traces, dNIC and iNIC devices
//	core      — the NetDIMM buffer device: nController, nCache, nPrefetcher
//	ethernet  — 40GbE links, switches, clos fabric
//	driver    — software-stack models incl. Algorithm 1
//	netfunc   — L3 forwarding (LPM trie) and DPI (Aho-Corasick)
//	workload  — cluster trace generators, MLC-style injector
//	experiments — one entry point per paper figure
//
// # Quick start
//
//	cfg := netdimm.DefaultConfig()
//	tx, _ := netdimm.NewNetDIMMWithConfig(cfg, 1)
//	rx, _ := netdimm.NewNetDIMMWithConfig(cfg, 2)
//	lat, _ := netdimm.OneWayLatencyWithConfig(cfg, tx, rx, 256, 100*time.Nanosecond)
//	fmt.Println(lat.Total, lat.IOReg, lat.TxFlush)
//
// Experiment runners regenerate the paper's evaluation on any Config:
// RunFig4WithConfig, RunFig5WithConfig, RunFig7WithConfig,
// RunFig11WithConfig, RunFig12aWithConfig, RunFig12bWithConfig,
// RunBandwidthWithConfig, RunAblationsWithConfig, RunHeadlineWithConfig,
// ReplayTraceFileWithConfig and RunLoadSweepWithConfig,
// RunRackSweepWithConfig and RunCollSweepWithConfig; the Observed forms
// (RunFig11Observed, RunFaultSweepObserved, RunLoadSweepObserved,
// RunRackSweepObserved, RunFailSweepObserved, RunCollSweepObserved,
// RunMixedChannelObserved) also return instrumentation. Each result type
// is an alias of the row its internal runner builds. Every family with a
// CSV is declared once in the family registry (LookupFamily,
// CampaignSchemas): cmd/netdimm-sim and the campaign harness run them
// through Family.Run.
package netdimm
