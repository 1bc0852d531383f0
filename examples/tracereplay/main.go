// Tracereplay generates synthetic Facebook-like cluster traffic (the
// documented substitution for the production traces of paper Sec. 5.1) and
// replays it through the simulated clos fabric under each NIC
// architecture — the Fig. 12(a) experiment.
package main

import (
	"flag"
	"fmt"
	"log"

	"netdimm"
)

func main() {
	scenario := flag.String("scenario", "", "system to simulate: a preset name or a JSON config file (default table1)")
	flag.Parse()
	cfg, err := netdimm.LoadScenario(*scenario)
	if err != nil {
		log.Fatal(err)
	}

	// First show what the three cluster workloads look like.
	for _, cluster := range netdimm.AllClusters {
		events, err := netdimm.GenerateTrace(cluster, 5000, 42)
		if err != nil {
			log.Fatal(err)
		}
		var small, mtu, bytes int
		locs := map[string]int{}
		for _, e := range events {
			if e.Size < 300 {
				small++
			}
			if e.Size == 1514 {
				mtu++
			}
			bytes += e.Size
			locs[e.Locality]++
		}
		fmt.Printf("%-10s mean %4dB  <300B %4.1f%%  MTU %4.1f%%  localities %v\n",
			cluster, bytes/len(events),
			100*float64(small)/float64(len(events)),
			100*float64(mtu)/float64(len(events)), locs)
	}

	// Replay each cluster across the paper's switch-latency sweep.
	fmt.Println("\nFig. 12(a) replay — NetDIMM latency normalized to dNIC and iNIC:")
	rows, err := netdimm.RunFig12aWithConfig(cfg, 1500, 7, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s  %8s  %11s  %11s  %11s  %11s\n",
		"cluster", "switch", "dNIC", "NetDIMM", "norm(dNIC)", "norm(iNIC)")
	for _, r := range rows {
		fmt.Printf("%-10s  %8v  %11v  %11v  %11.3f  %11.3f\n",
			r.Cluster, r.SwitchLatency, r.DNICMean, r.NetDIMMMean, r.NormVsDNIC, r.NormVsINIC)
	}
	fmt.Println("\nLower norm = bigger NetDIMM win. The win shrinks as switch latency")
	fmt.Println("grows (paper: 40.6% -> 25.3% from 25ns to 200ns switches), and")
	fmt.Println("inter-datacenter traffic (database) dilutes it with WAN propagation.")
}
