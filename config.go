package netdimm

import (
	"netdimm/internal/collective"
	"netdimm/internal/fabric"
	"netdimm/internal/fault"
	"netdimm/internal/obs"
	"netdimm/internal/spec"
	"netdimm/internal/workload"
)

// FaultConfig configures deterministic fault injection (packet loss,
// corruption, switch-port tail drops, NVDIMM-P RDY timeouts) and the
// retry/backoff policies that recover from it: the type of Config.Fault.
// The zero value disables all injection and changes no experiment output.
type FaultConfig = fault.Spec

// ObsConfig selects observability collection: Trace records per-packet
// lifecycle spans for Chrome trace-event export, Metrics collects named
// counters and time series: the type of Config.Obs. The zero value
// disables all instrumentation and changes no experiment output.
type ObsConfig = obs.Spec

// LoadConfig shapes the rack-scale load sweep's traffic: how many sender
// hosts fan in to the one receiver (the incast knob), which cluster
// distribution and arrival process generate packets, the egress buffer
// depth and the saturation-knee factor: the type of Config.Load. The zero
// value selects the sweep defaults and affects no other experiment's
// output.
type LoadConfig = workload.LoadSpec

// FabricConfig shapes the switched network topology: how many leaf (rack)
// and spine switches the clos has, the ECMP flow-hash seed, and the ECN
// congestion signal (marking threshold and sender backoff): the type of
// Config.Fabric. The zero value is the degenerate single-switch fabric
// every experiment built before the fabric plane existed and changes no
// output.
type FabricConfig = fabric.Spec

// CollectiveConfig shapes the collective-communication sweep (the
// `collsweep` experiment): which operation runs (ring allreduce, tree
// broadcast, reduce-scatter), over how many ranks, moving how much data in
// what chunk sizes: the type of Config.Collective. The zero value selects
// the sweep defaults (all three ops over the 4–128 rank grid) and affects
// no other experiment's output.
type CollectiveConfig = collective.Spec

// Config is the simulated system configuration — the paper's Table 1. It is
// the single authoritative system specification: every machine constructor
// and experiment runner derives its per-package parameters (software costs,
// device config, DRAM timing, PCIe link, Ethernet fabric, NET_i zone
// placement) from one validated Config. It aliases the internal spec.Spec,
// whose methods it carries: Validate returns an actionable error for the
// first inconsistency (every entry point that accepts a Config validates it
// first), and Table renders it as the paper's Table 1.
type Config = spec.Spec

// DefaultConfig returns Table 1 of the paper.
func DefaultConfig() Config { return spec.TableOne() }
