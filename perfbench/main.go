// Command perfbench is the repository benchmark. One run executes one
// workload — a full experiment sweep through the public facade, every cell
// at parallelism 1 — checks every cell's output, and prints host-time
// metrics, ending with one JSON line:
//
//	python3 perfbench/run.py --workload rack256 --seed 3 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// times calls into each module from outside the program and prints the
// per-layer split, writing its spans under .bench_build/spans. See
// README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed the pinned digests were taken at.
const defaultSeed = 3

// minSweeps is the least number of timed sweeps one end-to-end run makes,
// whatever --seconds says. Set-up is timed at least minSetups times and
// until setupBudget of host time is spent, so that workloads with cheap
// cells still take enough samples for a steady median.
const (
	minSweeps   = 3
	minSetups   = 5
	setupBudget = 2 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullScale)) }

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// run is the benchmark's command line over workloads of the given scale.
func run(args []string, stdout, stderr io.Writer, sc scale) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: rack256, incast32 or allreduce64")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "host seconds the end-to-end run measures for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics with spans")
	spansPath := fs.String("spans", "", "span file for --trace 1 (default .bench_build/spans/<workload>-seed<seed>.json)")
	printDigests := fs.Bool("print-digests", false, "print the workload's cell digests at --seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name, sc)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *printDigests {
		cells, _, err := w.sweep(*seed, false)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		for _, c := range cells {
			fmt.Fprintf(stdout, "%q, // %s\n", c.digest(), c.row)
		}
		return 0
	}

	b := &bench{w: w, seed: *seed, t: newTracer(*trace == 1), log: stderr}
	if *seed == defaultSeed {
		b.pinned = sc.digests[w.name]
	}
	calib := calibrate()
	var m metrics
	if *trace == 1 {
		m = b.layers()
		m["calib_ns"] = metric{calib, "ns"}
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		}
		if err := b.t.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	} else {
		m = b.endToEnd(time.Duration(*seconds * float64(time.Second)))
	}

	fmt.Fprintf(stdout, "workload=%s seed=%d trace=%d cells_attempted=%d cells_failed=%d failed_frac=%g\n",
		w.name, *seed, *trace, b.attempted, b.failed, float64(b.failed)/float64(max(b.attempted, 1)))
	fmt.Fprintf(stdout, "calib_ns=%.4f (host calibration loop, not gated)\n", calib)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	out, err := json.Marshal(result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   m,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// bench is one run's state: the workload, the output check's references
// and the tally of checked cells.
type bench struct {
	w    *workload
	seed uint64
	t    *tracer
	log  io.Writer
	// pinned holds the digests taken at defaultSeed; ref holds the first
	// sweep's digests, which every later sweep of the run must repeat.
	pinned, ref []string
	attempted   int
	failed      int
}

// check verifies one sweep's cells and counts them. A cell fails when its
// own accounting is wrong, when its digest differs from the pinned one or
// from the run's first sweep, or when the sweep returned an error.
func (b *bench) check(cells []cell, err error) {
	if err != nil {
		n := max(len(b.ref), len(b.pinned), 1)
		b.attempted += n
		b.failed += n
		fmt.Fprintln(b.log, "perfbench: sweep failed:", err)
		return
	}
	want := b.ref
	if want == nil {
		want = b.pinned
	}
	if want != nil && len(want) != len(cells) {
		b.attempted += len(want)
		b.failed += len(want)
		fmt.Fprintf(b.log, "perfbench: sweep returned %d cells, want %d\n", len(cells), len(want))
		return
	}
	digests := make([]string, len(cells))
	for i, c := range cells {
		b.attempted++
		digests[i] = c.digest()
		err := c.check()
		if err == nil && b.ref != nil && digests[i] != b.ref[i] {
			err = fmt.Errorf("%s: digest %s differs from the run's first sweep %s", c.row, digests[i], b.ref[i])
		}
		if err == nil && b.pinned != nil && digests[i] != b.pinned[i] {
			err = fmt.Errorf("%s: digest %s, pinned %s", c.row, digests[i], b.pinned[i])
		}
		if err != nil {
			b.failed++
			fmt.Fprintln(b.log, "perfbench: output check:", err)
		}
	}
	if b.ref == nil {
		b.ref = digests
	}
}

// sweep runs the workload's full grid once, timed, and checks its cells.
func (b *bench) sweep(name string, observed bool) ([]cell, string, sample) {
	runtime.GC()
	var cells []cell
	var csv string
	var err error
	s := b.t.measure(name, func() { cells, csv, err = b.w.sweep(b.seed, observed) })
	b.check(cells, err)
	return cells, csv, s
}

// events returns the simulated events each cell of an observed sweep
// fired, or nil (and counts a failure) when the registry cannot be read.
func (b *bench) events(cells []cell, metricsCSV string) []int64 {
	ev, err := cellEvents(metricsCSV)
	if err == nil && len(ev) != len(cells) {
		err = fmt.Errorf("metrics registry has %d cells, sweep has %d", len(ev), len(cells))
	}
	if err != nil {
		b.failed++
		b.attempted++
		fmt.Fprintln(b.log, "perfbench:", err)
		return nil
	}
	return ev
}

// endToEnd measures the workload as a user runs it: set-up time, then
// one observed sweep for the exact event count, then untraced sweeps until
// the time budget is spent.
func (b *bench) endToEnd(budget time.Duration) metrics {
	start := time.Now()
	var setups []float64
	for spent := time.Duration(0); len(setups) < minSetups || spent < setupBudget; {
		runtime.GC()
		d, err := setupOnce(b.t, b.w, b.seed)
		if err != nil {
			b.attempted++
			b.failed++
			fmt.Fprintln(b.log, "perfbench:", err)
			break
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	keep(nil) // release the last cell before the sweeps

	cells, csv, _ := b.sweep("sweep.observed", true)
	var events int64
	for _, e := range b.events(cells, csv) {
		events += e
	}

	var walls, allocs []float64
	for len(walls) < minSweeps || time.Since(start) < budget {
		_, _, s := b.sweep("sweep", false)
		walls = append(walls, s.dur.Seconds())
		allocs = append(allocs, float64(s.bytes)/(1<<20))
	}
	wall := median(walls)
	fmt.Fprintf(b.log, "perfbench: %d set-ups, sweep wall_s %.4g\n", len(setups), walls)
	return metrics{
		"wall_s":       {wall, "s"},
		"setup_s":      {median(setups), "s"},
		"events_per_s": {float64(events) / wall, "1/s"},
		"alloc_mb":     {median(allocs), "MiB"},
		"peak_rss_mb":  {peakRSS(), "MiB"},
	}
}

// peakRSS is the process's maximum resident set size in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// calibrate times a fixed pure-Go loop that calls no repository code, so
// a slower host shows as a larger calib_ns instead of as a regression.
func calibrate() float64 {
	const n = 1 << 24
	ds := make([]float64, 7)
	for i := range ds {
		x := uint64(88172645463325252)
		start := time.Now()
		for j := 0; j < n; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ds[i] = float64(time.Since(start).Nanoseconds()) / n
		keep(x)
	}
	return median(ds)
}

// layers is the traced run: each module timed on the workload's inputs,
// an observed sweep between two untraced ones for the tracing overhead and
// the exact counts, and the one-point grid for the per-cell time the split
// is measured against.
func (b *bench) layers() metrics {
	w := b.w
	m := metrics{}
	fail := func(err error) {
		b.attempted++
		b.failed++
		fmt.Fprintln(b.log, "perfbench:", err)
	}
	add := func(lm metrics) {
		for k, v := range lm {
			m[k] = v
		}
	}
	d, err := cellSpec(w).Derive()
	if err != nil {
		fail(err)
		return m
	}
	sm, derive, err := specLayer(b.t, w)
	if err != nil {
		fail(err)
	}
	add(sm)
	km, err := kallocLayer(b.t, d, w)
	if err != nil {
		fail(err)
	}
	add(km)
	dm, dc, err := driverLayer(b.t, d, w, b.seed)
	if err != nil {
		fail(err)
	}
	add(dm)
	fm, fc, err := fabricLayer(b.t, d, w, b.seed)
	if err != nil {
		fail(err)
	}
	add(fm)
	em, event := simLayer(b.t, w, b.seed)
	add(em)
	wm, next, dest := workloadLayer(b.t, w, b.seed)
	add(wm)
	cm, plan, verify, err := collectiveLayer(b.t, w, b.seed)
	if err != nil {
		fail(err)
	}
	add(cm)
	stm, observe, pct := statsLayer(b.t, w, b.seed)
	add(stm)

	// The observed sweep runs between two untraced ones, so that warm-up
	// and drift do not pass for tracing cost.
	_, _, before := b.sweep("sweep", false)
	cells, csv, traced := b.sweep("sweep.observed", true)
	_, _, after := b.sweep("sweep", false)
	plain := (before.dur + after.dur).Seconds() / 2
	m["trace_overhead_frac"] = metric{traced.dur.Seconds()/plain - 1, "ratio"}
	ev := b.events(cells, csv)
	var events int64
	for _, e := range ev {
		events += e
	}
	var frames, dropped, marked int
	for _, c := range cells {
		frames += c.frames
		dropped += c.dropped
		marked += c.marked
	}
	m["sim.events"] = metric{float64(events), "count"}
	m["fabric.frames"] = metric{float64(frames), "count"}
	m["fabric.dropped"] = metric{float64(dropped), "count"}
	m["fabric.marked"] = metric{float64(marked), "count"}

	// The one-point grid repeats some of the full grid's cells; they must
	// come out byte-identical.
	runtime.GC()
	var point []cell
	ps := b.t.measure("sweep.point", func() { point, err = w.point(b.seed) })
	if err == nil && (len(point) != len(w.pointCells) || len(cells) == 0) {
		err = fmt.Errorf("one-point grid returned %d cells, want %d", len(point), len(w.pointCells))
	}
	if err != nil {
		fail(err)
		return m
	}
	cellMs := ms(ps.dur) / float64(len(point))
	m["experiments.cell_ms"] = metric{cellMs, "ms"}

	// The split: what each cell's calls into the timed layers add up to,
	// against the measured cell time.
	var explained time.Duration
	for i, c := range point {
		b.attempted++
		full := cells[w.pointCells[i]]
		if c.digest() != full.digest() {
			b.failed++
			fmt.Fprintf(b.log, "perfbench: one-point cell %s differs from full-grid cell %s\n", c.row, full.row)
			continue
		}
		sh := w.shape
		fired := int64(0)
		if ev != nil {
			fired = ev[w.pointCells[i]]
		}
		tx, rx := sh.packets, c.delivered
		if sh.collective {
			tx, rx = c.frames, c.frames
		}
		fabEvents := int64(fc.eventsPerFrame * float64(c.frames))
		explained += derive + fc.build +
			dc.build[c.arch]*time.Duration(sh.txHosts+sh.rxHosts) +
			dc.tx[c.arch]*time.Duration(tx) + dc.rx[c.arch]*time.Duration(rx) +
			fc.forward*time.Duration(c.frames) +
			event*time.Duration(max(fired-fabEvents, 0))
		if sh.collective {
			explained += plan + verify
		} else {
			explained += next*time.Duration(sh.packets) + observe*time.Duration(c.delivered) + pct
			if sh.sampleDest {
				explained += dest * time.Duration(sh.packets)
			}
		}
	}
	m["experiments.unattributed_frac"] = metric{1 - explained.Seconds()/ps.dur.Seconds(), "ratio"}
	return m
}
