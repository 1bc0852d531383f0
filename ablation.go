package netdimm

import "netdimm/internal/experiments"

// BandwidthResult reports the Sec. 5.2 sustained-throughput check for one
// architecture.
type BandwidthResult = experiments.BandwidthResult

// RunBandwidthWithConfig streams MTU frames at line rate through each
// architecture on the system described by cfg (its link rate and
// local-channel bandwidth) and reports whether it sustains the offered
// rate (paper Sec. 5.2: all three do; the NetDIMM's single local channel
// has ample headroom). parallelism follows the convention of
// RunFig4WithConfig.
func RunBandwidthWithConfig(cfg Config, packets int, parallelism int) (_ []BandwidthResult, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return experiments.Bandwidth(cfg, packets, parallelism)
}

// AblationReport bundles the design-choice ablation studies: what each
// NetDIMM mechanism contributes (Sec. 4's design decisions).
type AblationReport = experiments.AblationReport

// AblationRow is one line of the ablation CSV: the study, the variant it
// measured, that variant's latency and, for studies that have one, its
// rate (hit rate or FPM rate).
type AblationRow = experiments.AblationRow

// RunAblationsWithConfig runs all four ablation studies on the system
// described by cfg. parallelism follows the convention of
// RunFig4WithConfig; the clone and alloc studies are inherently sequential
// and ignore it.
func RunAblationsWithConfig(cfg Config, parallelism int) (_ AblationReport, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return AblationReport{}, err
	}
	return experiments.Ablations(cfg, parallelism)
}
