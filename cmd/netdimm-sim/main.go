// Command netdimm-sim runs the paper's experiments and prints their
// tables/series.
//
// Usage:
//
//	netdimm-sim [flags] <experiment>
//
// Experiments: table1, fig4, fig5, fig7, fig11, fig12a, fig12b, bandwidth,
// ablation, mixed, replay, faultsweep, loadsweep, racksweep, failsweep,
// collsweep, headline, campaign, all. Every experiment family of the
// netdimm registry is a verb here: its axes come from the flags, and -csv
// prints its registry CSV. The -scenario flag selects the simulated
// system: a named preset (table1, ddr5, pcie-gen3, lossy-1pct) or a JSON
// config file. Flags go before the verb; only replay takes a word after
// it (its trace file), and campaign its own -grid and -outdir.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"netdimm"
)

var (
	packets    = flag.Int("n", 1000, "packets per cell; racksweep and failsweep keep their own per-cell default unless -n is given")
	switchLat  = flag.Duration("switch", 100*time.Nanosecond, "switch port-to-port latency (fig4, fig11: a whole number of nanoseconds; replay)")
	seed       = flag.Uint64("seed", 3, "trace generator seed")
	asCSV      = flag.Bool("csv", false, "emit plot-ready CSV instead of tables")
	parallel   = flag.Int("parallel", 0, "worker goroutines per sweep: 0 = all cores, 1 = sequential, N = at most N")
	scenario   = flag.String("scenario", "", "system to simulate: a preset name or a JSON config file (default table1)")
	lossRates  = flag.String("loss", "", "comma-separated frame-loss rates for faultsweep (default 0,0.001,0.01,0.05,0.1,0.2)")
	loadRates  = flag.String("rate", "", "comma-separated offered loads (fractions of line rate) for loadsweep and racksweep (default a grid bracketing each knee)")
	hosts      = flag.Int("hosts", 0, "sender hosts, 0 = scenario value or the family default")
	shards     = flag.Int("shards", 0, "engine shards per cell, 0 = scenario value or single-engine; results are identical at any count")
	rackList   = flag.String("racks", "", "comma-separated rack (leaf) counts for racksweep (default 2,4,8; a scenario Fabric.Leaves pins one)")
	outageList = flag.String("outage", "", "comma-separated spine-outage durations for failsweep, Go duration syntax (default 0,5µs,20µs,60µs; 0 is the baseline)")
	cluster    = flag.String("cluster", "", "traffic distribution for the verbs that take -hosts: database, webserver or hadoop (default scenario value or database)")
	traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file of the run, to open in ui.perfetto.dev")
	metrics    = flag.Bool("metrics", false, "collect and print the metrics registry after the experiment output")
	rankList   = flag.String("ranks", "", "comma-separated rank counts for collsweep (default 4,8,16,32,64,128; a scenario Collective.Ranks pins one)")
	opsList    = flag.String("ops", "", "comma-separated collective ops for collsweep: allreduce, broadcast, reducescatter (default all three; a scenario Collective.Op pins one)")
	payload    = flag.Int("payload", 0, "per-rank vector bytes for collsweep (0 = scenario value or 64KiB)")
)

// axisFlag names the flag that fills each registry axis. Sizes has none:
// the command line always runs the paper's packet sizes.
var axisFlag = map[string]string{
	"Packets": "n", "SwitchNs": "switch", "Rates": "rate", "Racks": "racks",
	"Outages": "outage", "Hosts": "hosts", "Shards": "shards", "Ranks": "ranks",
	"Ops": "ops", "Payload": "payload", "Metrics": "metrics", "Trace": "trace",
}

// flagFor is the flag that fills axis for family fam: faultsweep sweeps
// loss rates, so its Rates come from -loss rather than -rate.
func flagFor(fam, axis string) string {
	if fam == "faultsweep" && axis == "Rates" {
		return "loss"
	}
	return axisFlag[axis]
}

// ownPacketDefault lists the clos-scale families whose per-cell packet
// default is not -n's 1000: they split the count across hundreds of hosts,
// so -n applies to them only when given explicitly.
var ownPacketDefault = map[string]bool{"racksweep": true, "failsweep": true}

// flagWasSet reports whether the named flag was given explicitly on the
// command line (flag.Visit walks only the flags that were set).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// flagAxes fills the axes family fam consumes from the command line.
func flagAxes(fam netdimm.Family) (netdimm.Axes, error) {
	var ax netdimm.Axes
	for _, name := range fam.Axes {
		var err error
		switch name {
		case "Packets":
			if !ownPacketDefault[fam.Name] || flagWasSet("n") {
				ax.Packets = *packets
			}
		case "SwitchNs":
			if *switchLat <= 0 || *switchLat%time.Nanosecond != 0 {
				return ax, fmt.Errorf("%s: -switch %v must be a positive whole number of nanoseconds", fam.Name, *switchLat)
			}
			ax.SwitchNs = int(*switchLat / time.Nanosecond)
		case "Rates":
			src := *loadRates
			if flagFor(fam.Name, name) == "loss" {
				src = *lossRates
			}
			ax.Rates, err = parseList(src, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
		case "Racks":
			ax.Racks, err = parseList(*rackList, strconv.Atoi)
		case "Outages":
			ax.Outages, _ = parseList(*outageList, keep)
		case "Hosts":
			ax.Hosts = *hosts
		case "Shards":
			ax.Shards = *shards
		case "Ranks":
			ax.Ranks, err = parseList(*rankList, strconv.Atoi)
		case "Ops":
			ax.Ops, _ = parseList(*opsList, keep)
		case "Payload":
			ax.Payload = *payload
		case "Metrics":
			ax.Metrics = *metrics
		case "Trace":
			ax.Trace = *traceOut != ""
		}
		if err != nil {
			return ax, fmt.Errorf("%s: bad -%s value: %v", fam.Name, flagFor(fam.Name, name), err)
		}
	}
	return ax, nil
}

// parseList parses a comma-separated flag value; an empty flag yields nil,
// which selects the family's default axis.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// keep is the parseList element parser of string-valued axes.
func keep(s string) (string, error) { return s, nil }

// emitObservation writes the -trace file and prints the metrics registry
// (as CSV under -csv) for an observed run; a nil observation only writes
// the empty-but-valid trace file when one was requested.
func emitObservation(ob *netdimm.Observation) error {
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := ob.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "netdimm-sim: wrote trace to %s (open in ui.perfetto.dev)\n", *traceOut)
	}
	if *metrics && ob.HasMetrics() {
		fmt.Println()
		if *asCSV {
			fmt.Print(ob.MetricsCSV())
		} else {
			fmt.Println("Metrics registry")
			fmt.Print(ob.MetricsTable())
		}
	}
	return nil
}

// command is one verb the CLI can run. Every runner receives the scenario
// configuration; `all` replays the inAll commands in order.
type command struct {
	name  string
	help  string
	inAll bool
	// flags lists the capability flags (csv, trace, metrics, n, hosts,
	// shards) the verb honours; a family verb's come from its axes.
	flags []string
	run   func(cfg netdimm.Config) error
}

// commands is the single dispatch table: usage, dispatch, flag help and
// `all` iterate over it. Family verbs take their help line, axes and CSV
// from the registry and add only their human-readable table here.
var commands = []command{
	{name: "table1", help: "system configuration (paper Table 1, or the scenario's)", inAll: true,
		run: func(cfg netdimm.Config) error { fmt.Print(cfg.Table()); return nil }},
	familyCommand("fig4", true, textFig4),
	familyCommand("fig5", true, textFig5),
	familyCommand("fig7", true, textFig7),
	familyCommand("fig11", true, textFig11),
	familyCommand("fig12a", true, textFig12a),
	familyCommand("fig12b", true, textFig12b),
	{name: "bandwidth", help: "sustained line-rate check (Sec. 5.2)", inAll: true, flags: []string{"n"}, run: runBandwidth},
	familyCommand("ablation", true, textAblation),
	{name: "mixed", help: "DDR + NetDIMM coexistence on one channel (NVDIMM-P async, Sec. 2.2)",
		flags: []string{"n", "trace", "metrics"}, run: runMixed},
	{name: "replay", help: "replay a netdimm-trace file under all three architectures", run: runReplayArg},
	familyCommand("faultsweep", false, textFaultSweep),
	familyCommand("loadsweep", false, textLoadSweep),
	familyCommand("racksweep", false, textRackSweep),
	familyCommand("failsweep", false, textFailSweep),
	familyCommand("collsweep", false, textCollSweep),
	{name: "headline", help: "the abstract's summary numbers", inAll: true, flags: []string{"n"}, run: runHeadline},
	{name: "campaign", help: "run a grid of experiments from -grid FILE into a timestamped output dir", run: runCampaign},
}

// familyCommand binds a registry family to its text table.
func familyCommand(name string, inAll bool, text func(netdimm.FamilyRun)) command {
	fam, ok := netdimm.LookupFamily(name)
	if !ok {
		panic("netdimm-sim: no registry family " + name)
	}
	flags := []string{"csv"}
	for _, axis := range fam.Axes {
		if f := flagFor(name, axis); f != "" {
			flags = append(flags, f)
		}
	}
	return command{name: name, help: fam.Help, inAll: inAll, flags: flags, run: func(cfg netdimm.Config) error {
		ax, err := flagAxes(fam)
		if err != nil {
			return err
		}
		if *cluster != "" && slices.Contains(fam.Axes, "Hosts") {
			cfg.Load.Cluster = *cluster
		}
		out, err := fam.Run(cfg, *seed, ax, *parallel)
		if err != nil {
			return err
		}
		if *asCSV {
			fmt.Print(out.CSV())
		} else {
			text(out)
		}
		if fam.Observed {
			return emitObservation(out.Obs)
		}
		return nil
	}}
}

// verbsHonouring lists the verbs that act on the named flag.
func verbsHonouring(flagName string) []string {
	var names []string
	for _, c := range commands {
		if slices.Contains(c.flags, flagName) {
			names = append(names, c.name)
		}
	}
	return names
}

// init appends to each capability flag's help the verbs that honour it.
func init() {
	for _, name := range []string{"csv", "trace", "metrics", "n", "hosts", "shards"} {
		f := flag.Lookup(name)
		f.Usage += " (verbs: " + strings.Join(verbsHonouring(name), ", ") + ")"
	}
}

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	exp, args := flag.Arg(0), flag.Args()[1:]
	if exp == "campaign" {
		// campaign takes its flags after the verb (`campaign -grid FILE`),
		// so re-parse the remainder.
		flag.CommandLine.Parse(args)
		args = flag.Args()
	}
	cfg, err := netdimm.LoadScenario(*scenario)
	if err == nil {
		err = run(cfg, exp, args)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "netdimm-sim: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: netdimm-sim [flags] <experiment>\n\nexperiments:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", c.name, c.help)
	}
	fmt.Fprintf(os.Stderr, "  %-10s %s\n", "all", "every experiment above that needs no extra argument")
	fmt.Fprintf(os.Stderr, "\nscenarios (for -scenario; or pass a JSON config file):\n  %v\n\nflags:\n",
		netdimm.Scenarios())
	flag.PrintDefaults()
}

// checkArgs refuses the words after the verb that it does not take:
// replay takes exactly one, its trace file; every other verb none.
func checkArgs(exp string, args []string) error {
	if exp == "replay" {
		if len(args) == 0 {
			return fmt.Errorf("replay: usage: netdimm-sim replay FILE")
		}
		args = args[1:]
	}
	if len(args) == 0 {
		return nil
	}
	if strings.HasPrefix(args[0], "-") && exp != "campaign" {
		return fmt.Errorf("%s: unexpected %q after the verb; flags go before it: netdimm-sim [flags] %s", exp, args[0], exp)
	}
	return fmt.Errorf("%s: unexpected argument %q", exp, args[0])
}

func run(cfg netdimm.Config, exp string, args []string) error {
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == exp })
	if i < 0 && exp != "all" {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if err := checkArgs(exp, args); err != nil {
		return err
	}
	if exp == "all" {
		first := true
		for _, c := range commands {
			if !c.inAll {
				continue
			}
			if !first {
				fmt.Println()
			}
			first = false
			if err := c.run(cfg); err != nil {
				return err
			}
		}
		return nil
	}
	// A single verb refuses an output flag it cannot honour; `all` applies
	// each to the verbs that can.
	c := commands[i]
	given := map[string]bool{"csv": *asCSV, "trace": *traceOut != "", "metrics": *metrics}
	for _, name := range []string{"csv", "trace", "metrics"} {
		if given[name] && !slices.Contains(c.flags, name) {
			return fmt.Errorf("%s does not support -%s (verbs that do: %s)",
				exp, name, strings.Join(verbsHonouring(name), ", "))
		}
	}
	return c.run(cfg)
}

func textFig4(out netdimm.FamilyRun) {
	fmt.Printf("Fig. 4 — one-way latency, baseline NICs (switch %v)\n", *switchLat)
	fmt.Printf("%6s  %10s  %10s  %10s  %10s  %10s  %10s\n",
		"size", "dNIC", "dNIC.zcpy", "iNIC", "iNIC.zcpy", "pcie.overh", "pcie.zcpy")
	for _, r := range out.Rows.([]netdimm.Fig4Result) {
		fmt.Printf("%6d  %10v  %10v  %10v  %10v  %9.1f%%  %9.1f%%\n",
			r.Size, r.DNIC, r.DNICZcpy, r.INIC, r.INICZcpy,
			r.PCIeShare*100, r.PCIeShareZcpy*100)
	}
}

func textFig5(out netdimm.FamilyRun) {
	fmt.Println("Fig. 5 — iperf bandwidth vs MLC memory pressure")
	fmt.Printf("%14s  %10s  %12s\n", "inject delay", "Gbps", "mem read ns")
	for _, r := range out.Rows.([]netdimm.Fig5Result) {
		delay := r.InjectDelay.String()
		if r.InjectDelay >= time.Second {
			delay = "none"
		}
		fmt.Printf("%14s  %10.1f  %12.0f\n", delay, r.BandwidthGbps, r.MemReadNs)
	}
}

func textFig7(out netdimm.FamilyRun) {
	fmt.Println("Fig. 7 — DMA request trace, six 1514B receptions (rel line, rel ns, burst)")
	for i, p := range out.Rows.([]netdimm.Fig7Result) {
		fmt.Printf("%4d %8.1f %d", p.RelCacheline, float64(p.RelTime.Nanoseconds()), p.Burst)
		if (i+1)%4 == 0 {
			fmt.Println()
		} else {
			fmt.Print("   |   ")
		}
	}
	fmt.Println()
}

func textFig11(out netdimm.FamilyRun) {
	fmt.Printf("Fig. 11 — one-way latency breakdown (switch %v)\n", *switchLat)
	for _, r := range out.Extra.([]netdimm.Fig11Result) {
		fmt.Printf("size %dB:\n", r.Size)
		fmt.Printf("  dNIC    %v\n", r.DNIC)
		fmt.Printf("  iNIC    %v\n", r.INIC)
		fmt.Printf("  NetDIMM %v\n", r.NetDIMM)
		fmt.Printf("  reduction: %.1f%% vs dNIC, %.1f%% vs iNIC\n",
			r.ReductionVsDNIC*100, r.ReductionVsINIC*100)
	}
}

func textFig12a(out netdimm.FamilyRun) {
	fmt.Printf("Fig. 12a — normalized per-packet latency, %d packets/cell\n", *packets)
	fmt.Printf("%-10s  %8s  %10s  %10s  %12s  %12s\n",
		"cluster", "switch", "dNIC mean", "ND mean", "norm(dNIC)", "norm(iNIC)")
	for _, r := range out.Rows.([]netdimm.Fig12aResult) {
		fmt.Printf("%-10s  %8v  %10v  %10v  %12.3f  %12.3f\n",
			r.Cluster, r.SwitchLatency, r.DNICMean, r.NetDIMMMean, r.NormVsDNIC, r.NormVsINIC)
	}
}

func textFig12b(out netdimm.FamilyRun) {
	fmt.Println("Fig. 12b — co-running app memory latency (normalized to iNIC)")
	fmt.Printf("%-10s  %-4s  %10s  %10s  %8s\n", "cluster", "nf", "iNIC ns", "ND ns", "norm")
	for _, r := range out.Rows.([]netdimm.Fig12bResult) {
		fmt.Printf("%-10s  %-4s  %10.1f  %10.1f  %8.3f\n",
			r.Cluster, r.Function, r.INICNs, r.NetDIMMNs, r.Norm)
	}
}

func runBandwidth(cfg netdimm.Config) error {
	rows, err := netdimm.RunBandwidthWithConfig(cfg, *packets, *parallel)
	if err != nil {
		return err
	}
	fmt.Printf("Bandwidth — sustained %dGbE line-rate check (Sec. 5.2)\n", cfg.NetworkGbps)
	fmt.Printf("%-8s  %8s  %9s  %11s  %9s  %s\n",
		"arch", "offered", "achieved", "per-pkt RX", "headroom", "sustained")
	for _, r := range rows {
		head := "-"
		if r.ChannelHeadroom > 0 {
			head = fmt.Sprintf("%.0f%%", r.ChannelHeadroom*100)
		}
		fmt.Printf("%-8s  %7.1fG  %8.1fG  %11v  %9s  %v\n",
			r.Arch, r.OfferedGbps, r.AchievedGbps, r.PerPacketRx, head, r.Sustained)
	}
	return nil
}

func textAblation(out netdimm.FamilyRun) {
	rep := out.Extra.(netdimm.AblationReport)
	fmt.Println("Ablations — what each NetDIMM design choice contributes")
	fmt.Println("\nnPrefetcher degree vs payload-read behaviour:")
	for _, r := range rep.Prefetch {
		fmt.Printf("  degree %d: nCache hit rate %5.1f%%, mean read %v\n",
			r.Degree, r.HitRate*100, r.MeanReadLat)
	}
	fmt.Println("\nBuffer copy strategy (one MTU packet):")
	for _, r := range rep.Clone {
		fmt.Printf("  %-38s %v\n", r.Strategy, r.PerClone)
	}
	fmt.Println("\nDMA-buffer allocation strategy:")
	for _, r := range rep.Alloc {
		fmt.Printf("  %-38s %8v critical-path, FPM rate %5.1f%%\n",
			r.Strategy, r.PerAlloc, r.FPMRate*100)
	}
	fmt.Println("\nHeader caching (L3F-style access):")
	for _, r := range rep.HeaderCache {
		fmt.Printf("  %-28s header read %v, hit rate %5.1f%%\n",
			r.Strategy, r.HeaderRead, r.HitRate*100)
	}
}

func runMixed(cfg netdimm.Config) error {
	cfg.Obs.Trace = cfg.Obs.Trace || *traceOut != ""
	cfg.Obs.Metrics = cfg.Obs.Metrics || *metrics
	r, ob, err := netdimm.RunMixedChannelObserved(cfg, *packets, *seed)
	if err != nil {
		return err
	}
	fmt.Println("Mixed channel — DDR + NetDIMM on one DDR5 channel (Sec. 2.2)")
	fmt.Printf("  DDR reads:      %5d  mean %v\n", r.DDRReads, r.DDRMean)
	fmt.Printf("  NetDIMM reads:  %5d  mean %v (asynchronous, non-deterministic)\n",
		r.NetDIMMReads, r.NetDIMMMean)
	fmt.Printf("  out-of-order completions: %d, max outstanding request IDs: %d\n",
		r.OutOfOrder, r.MaxOutstandingIDs)
	return emitObservation(ob)
}

// runReplayArg replays the trace file named after the verb (checkArgs
// has made sure there is exactly one).
func runReplayArg(cfg netdimm.Config) error {
	path := flag.Arg(1)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cluster, rows, err := netdimm.ReplayTraceFileWithConfig(cfg, f, *switchLat, *seed, *parallel)
	if err != nil {
		return err
	}
	fmt.Printf("Replay of %s (%s trace)\n", path, cluster)
	fmt.Printf("%-8s  %8s  %10s  %10s  %10s\n", "arch", "packets", "mean", "p50", "p99")
	for _, r := range rows {
		fmt.Printf("%-8s  %8d  %10v  %10v  %10v\n", r.Arch, r.Packets, r.Mean, r.P50, r.P99)
	}
	return nil
}

func textFaultSweep(out netdimm.FamilyRun) {
	fmt.Println("Fault sweep — one-way latency vs injected frame loss (with recovery)")
	fmt.Printf("%-8s  %8s  %10s  %10s  %10s  %9s  %6s  %7s\n",
		"arch", "loss", "mean", "p50", "p99", "delivered", "failed", "retrans")
	for _, r := range out.Rows.([]netdimm.FaultSweepResult) {
		fmt.Printf("%-8s  %8g  %10v  %10v  %10v  %9d  %6d  %7d\n",
			r.Arch, r.LossRate, r.Mean, r.P50, r.P99, r.Delivered, r.Failed, r.Counters.Retransmits)
	}
	// The cross-rate tails are part of the -metrics rendering, so the
	// default output stays unchanged.
	if tails := out.Extra.([]netdimm.FaultTailResult); *metrics && len(tails) > 0 {
		fmt.Println("\nLatency tails across all loss rates")
		fmt.Printf("%-8s  %8s  %10s  %10s  %10s\n", "arch", "samples", "mean", "p50", "p99")
		for _, t := range tails {
			fmt.Printf("%-8s  %8d  %10v  %10v  %10v\n", t.Arch, t.Count, t.Mean, t.P50, t.P99)
		}
	}
}

func textLoadSweep(out netdimm.FamilyRun) {
	fmt.Println("Load sweep — rack-scale incast: end-to-end latency vs offered load")
	fmt.Printf("%-8s  %7s  %10s  %10s  %10s  %10s  %9s  %7s  %8s\n",
		"arch", "load", "mean", "p50", "p99", "p99.9", "delivered", "dropped", "rx depth")
	for _, r := range out.Rows.([]netdimm.LoadSweepResult) {
		fmt.Printf("%-8s  %7g  %10v  %10v  %10v  %10v  %9d  %7d  %8d\n",
			r.Arch, r.OfferedLoad, r.Mean, r.P50, r.P99, r.P999, r.Delivered, r.Dropped, r.RxMaxDepth)
	}
	fmt.Println("\nSaturation knees (highest load with p99 within the knee factor of baseline)")
	for _, k := range out.Extra.([]netdimm.LoadKneeResult) {
		if !k.Saturated {
			fmt.Printf("  %-8s no knee: curve never saturated within the swept grid\n", k.Arch)
			continue
		}
		fmt.Printf("  %-8s saturates beyond %g of line rate\n", k.Arch, k.Knee)
	}
}

func ecnStr(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

func textRackSweep(out netdimm.FamilyRun) {
	fmt.Println("Rack sweep — leaf/spine clos: end-to-end latency vs per-host load")
	fmt.Printf("%-8s  %5s  %4s  %6s  %10s  %10s  %10s  %9s  %7s  %7s  %6s\n",
		"arch", "racks", "ecn", "load", "mean", "p99", "p99.9", "delivered", "dropped", "marked", "xrack")
	for _, r := range out.Rows.([]netdimm.RackSweepResult) {
		fmt.Printf("%-8s  %5d  %4s  %6g  %10v  %10v  %10v  %9d  %7d  %7d  %6d\n",
			r.Arch, r.Racks, ecnStr(r.ECN), r.OfferedLoad, r.Mean, r.P99, r.P999,
			r.Delivered, r.Dropped, r.Marked, r.CrossRack)
	}
	fmt.Println("\nSaturation knees per (arch, racks, ECN) curve")
	for _, k := range out.Extra.([]netdimm.RackKneeResult) {
		if !k.Saturated {
			fmt.Printf("  %-8s racks=%d ecn=%-3s no knee: curve never saturated within the swept grid\n",
				k.Arch, k.Racks, ecnStr(k.ECN))
			continue
		}
		fmt.Printf("  %-8s racks=%d ecn=%-3s saturates beyond %g of line rate\n",
			k.Arch, k.Racks, ecnStr(k.ECN), k.Knee)
	}
}

func textFailSweep(out netdimm.FamilyRun) {
	fmt.Println("Failure sweep — scheduled spine outage: failover, recovery, tail inflation")
	fmt.Printf("%-8s  %7s  %9s  %7s  %8s  %8s  %7s  %9s  %10s  %10s  %10s  %9s\n",
		"arch", "outage", "delivered", "dropped", "rerouted", "retrans", "recov", "reroute", "mean recov", "p99 before", "p99 after", "inflation")
	for _, r := range out.Rows.([]netdimm.FailSweepResult) {
		reroute := "-"
		if r.TimeToReroute >= 0 {
			reroute = r.TimeToReroute.String()
		}
		inflation := "-"
		if r.TailInflation > 0 {
			inflation = fmt.Sprintf("%.2fx", r.TailInflation)
		}
		fmt.Printf("%-8s  %7v  %9d  %7d  %8d  %8d  %7d  %9s  %10v  %10v  %10v  %9s\n",
			r.Arch, r.Outage, r.Delivered, r.Dropped, r.Rerouted, r.Retransmits, r.Recovered,
			reroute, r.MeanRecovery, r.P99Before, r.P99After, inflation)
	}
}

func textCollSweep(out netdimm.FamilyRun) {
	fmt.Println("Collective sweep — completion time vs rank count (every cell verified against a sequential reference)")
	fmt.Printf("%-8s  %-13s  %5s  %5s  %12s  %11s  %10s  %7s  %6s\n",
		"arch", "op", "ranks", "steps", "completion", "step skew", "wire bytes", "marked", "util")
	for _, r := range out.Rows.([]netdimm.CollSweepResult) {
		fmt.Printf("%-8s  %-13s  %5d  %5d  %12v  %11v  %10d  %7d  %5.1f%%\n",
			r.Arch, r.Op, r.Ranks, r.Steps, r.Completion, r.StepSkew,
			r.BytesOnWire, r.Marked, r.LinkUtilization*100)
	}
}

func runHeadline(cfg netdimm.Config) error {
	h, err := netdimm.RunHeadlineWithConfig(cfg, *packets, *parallel)
	if err != nil {
		return err
	}
	fmt.Println("Headline numbers (paper values in parentheses)")
	fmt.Printf("  avg one-way latency reduction vs dNIC: %.1f%% (49.9%%)\n", h.AvgReductionVsDNIC*100)
	fmt.Printf("  avg one-way latency reduction vs iNIC: %.1f%% (25.9%%)\n", h.AvgReductionVsINIC*100)
	var keys []time.Duration
	for k := range h.TraceReductionBySwitch {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	paper := map[time.Duration]string{
		25 * time.Nanosecond:  "40.6%",
		50 * time.Nanosecond:  "36.0%",
		100 * time.Nanosecond: "33.1%",
		200 * time.Nanosecond: "25.3%",
	}
	for _, k := range keys {
		fmt.Printf("  trace replay reduction @%v switch: %.1f%% (%s)\n",
			k, h.TraceReductionBySwitch[k]*100, paper[k])
	}
	fmt.Printf("  DPI worst-case app-latency increase vs iNIC: +%.1f%% (+15.4%%)\n", h.DPIWorst*100)
	fmt.Printf("  L3F best-case app-latency reduction vs iNIC: -%.1f%% (-30.9%%)\n", h.L3FBest*100)
	return nil
}
