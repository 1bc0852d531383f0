package main

import (
	"fmt"
	"sort"
	"time"

	"netdimm/internal/addrmap"
	"netdimm/internal/collective"
	"netdimm/internal/driver"
	"netdimm/internal/ethernet"
	"netdimm/internal/fabric"
	"netdimm/internal/kalloc"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
	traffic "netdimm/internal/workload"
)

// The per-layer measurements time calls into each module's public
// functions from outside the program, on the inputs the workload's cells
// hand them. Every call runs inside a tracer span.

// layerTarget is the least number of packets, frames or samples a
// per-operation measurement covers, so that workloads with tiny per-host
// counts still time enough operations.
const layerTarget = 4000

// metrics is a set of named measurements.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// repeat measures fn reps times under name and returns the median
// duration, bytes and allocations of one call.
func repeat(t *tracer, name string, reps int, fn func()) (dur time.Duration, bytes, allocs float64) {
	ds := make([]float64, reps)
	bs := make([]float64, reps)
	as := make([]float64, reps)
	for i := range ds {
		s := t.measure(name, fn)
		ds[i], bs[i], as[i] = float64(s.dur), float64(s.bytes), float64(s.allocs)
	}
	return time.Duration(median(ds)), median(bs), median(as)
}

// cellSpec is the specification one cell of the workload derives from.
func cellSpec(w *workload) spec.Spec {
	sp := spec.Spec(w.cfg)
	sp.Fabric.Leaves = w.shape.leaves
	sp.Fabric.Spines = w.shape.spines
	return sp
}

// newEndpoint builds one endpoint of arch the way the sweeps do; i is the
// endpoint's index in the NetDIMM seed sequence, odd for senders.
func newEndpoint(d *spec.Derived, arch string, seed uint64, i int) (driver.Machine, error) {
	switch arch {
	case "dNIC":
		return d.NewDNIC(false), nil
	case "iNIC":
		return d.NewINIC(false), nil
	case "NetDIMM":
		return d.NewNetDIMM(seed + uint64(i))
	}
	return nil, fmt.Errorf("unknown architecture %q", arch)
}

// buildCell builds what one cell of arch holds before its first event:
// the derived specification, every endpoint and the fabric topology.
func buildCell(w *workload, arch string, seed uint64) (any, error) {
	d, err := cellSpec(w).Derive()
	if err != nil {
		return nil, err
	}
	sh := w.shape
	eps := make([]driver.Machine, 0, sh.txHosts+sh.rxHosts)
	for h := 0; h < sh.txHosts; h++ {
		m, err := newEndpoint(d, arch, seed, 2*h+1)
		if err != nil {
			return nil, err
		}
		eps = append(eps, m)
		if sh.rxHosts == sh.txHosts {
			if m, err = newEndpoint(d, arch, seed, 2*h+2); err != nil {
				return nil, err
			}
			eps = append(eps, m)
		}
	}
	for h := 0; sh.rxHosts != sh.txHosts && h < sh.rxHosts; h++ {
		m, err := newEndpoint(d, arch, seed, 2*(sh.rxSeedBase+h)+2)
		if err != nil {
			return nil, err
		}
		eps = append(eps, m)
	}
	topo := d.NewTopology(fabric.SingleEngine(sim.NewEngine()), sh.topoHosts, sh.portBuffer)
	return []any{eps, topo}, nil
}

// setupOnce builds one cell of every architecture in turn and returns the
// total host time. Each cell is dropped before the next is built.
func setupOnce(t *tracer, w *workload, seed uint64) (time.Duration, error) {
	var total time.Duration
	for _, arch := range archs {
		var err error
		var built any
		s := t.measure("setup."+arch, func() { built, err = buildCell(w, arch, seed) })
		if err != nil {
			return 0, fmt.Errorf("setup %s: %w", arch, err)
		}
		keep(built)
		total += s.dur
	}
	return total, nil
}

// sink keeps measured results reachable so no call is optimised away.
var sink any

func keep(v any) { sink = v }

// packetSizes draws n frame sizes from the workload's size mix.
func packetSizes(sh shape, seed uint64, n int) []int {
	r := sim.NewRand(seed ^ 0x512e)
	sizes := make([]int, n)
	for i := range sizes {
		if sh.mtuFrames {
			sizes[i] = nic.MTU
		} else {
			sizes[i] = traffic.Database.SampleSize(r)
		}
	}
	return sizes
}

// endpointsFor is how many fresh endpoints a per-packet measurement uses
// so that each handles per packets, as in a cell, and together they cover
// at least layerTarget.
func endpointsFor(per int) int {
	if per < 1 {
		per = 1
	}
	return (layerTarget + per - 1) / per
}

func specLayer(t *tracer, w *workload) (metrics, time.Duration, error) {
	sp := cellSpec(w)
	var err error
	dur, _, _ := repeat(t, "spec.derive", 101, func() { _, err = sp.Derive() })
	if err != nil {
		return nil, 0, err
	}
	return metrics{"spec.derive_us": {us(dur), "us"}}, dur, nil
}

func kallocLayer(t *tracer, d *spec.Derived, w *workload) (metrics, error) {
	base := d.ZoneBase(0)
	size := int64(d.Core.Ranks) * addrmap.RankBytes
	var zone *kalloc.Zone
	zoneDur, zoneBytes, _ := repeat(t, "kalloc.zone_build", 11, func() {
		zone = kalloc.NewNetDIMMZone("NET_0", base, size)
	})
	var cacheDurs, cacheBytes []float64
	var err error
	for i := 0; i < 11; i++ {
		z := kalloc.NewNetDIMMZone("NET_0", base, size)
		var c *kalloc.AllocCache
		s := t.measure("kalloc.cache_build", func() { c, err = kalloc.NewAllocCache(z, 2) })
		if err != nil {
			return nil, err
		}
		keep(c)
		cacheDurs = append(cacheDurs, float64(s.dur))
		cacheBytes = append(cacheBytes, float64(s.bytes))
	}
	keep(zone)

	// The NetDIMM RX path's allocator pattern: a no-affinity DMA buffer,
	// then a page in the same sub-array for the clone, both released once
	// the packet is consumed. Each cache serves one receiver's packets.
	per := w.shape.rxPer
	var getDur time.Duration
	var gets int
	var hits, slow uint64
	for e := 0; e < endpointsFor(per); e++ {
		z := kalloc.NewNetDIMMZone("NET_0", base, size)
		c, err := kalloc.NewAllocCache(z, 2)
		if err != nil {
			return nil, err
		}
		s := t.measure("kalloc.get", func() {
			for i := 0; i < per && err == nil; i++ {
				var rx, skb int64
				if rx, _, err = c.Get(kalloc.NoHint); err != nil {
					break
				}
				if skb, _, err = c.Get(rx); err != nil {
					break
				}
				if err = c.Release(rx); err == nil {
					err = c.Release(skb)
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("kalloc get: %w", err)
		}
		getDur += s.dur
		gets += 2 * per
		h, sl := c.Stats()
		hits += h
		slow += sl
	}
	return metrics{
		"kalloc.zone_build_us":  {us(zoneDur), "us"},
		"kalloc.zone_build_kb":  {zoneBytes / 1024, "KiB"},
		"kalloc.cache_build_us": {median(cacheDurs) / 1e3, "us"},
		"kalloc.cache_build_kb": {median(cacheBytes) / 1024, "KiB"},
		"kalloc.get_ns":         {float64(getDur.Nanoseconds()) / float64(gets), "ns"},
		"kalloc.fast_ratio":     {float64(hits) / float64(hits+slow), "ratio"},
	}, nil
}

// driverCosts holds the per-architecture driver numbers the unattributed
// share needs.
type driverCosts struct {
	build, tx, rx map[string]time.Duration
}

func driverLayer(t *tracer, d *spec.Derived, w *workload, seed uint64) (metrics, driverCosts, error) {
	m := metrics{}
	dc := driverCosts{build: map[string]time.Duration{}, tx: map[string]time.Duration{}, rx: map[string]time.Duration{}}
	for _, arch := range archs {
		// Endpoints are timed in batches, as a cell builds them back to
		// back; hardware-NIC endpoints build in well under a microsecond.
		batch := 1000
		if arch == "NetDIMM" {
			batch = 16
		}
		var err error
		dur, bytes, allocs := repeat(t, "driver.build."+arch, 11, func() {
			for i := 0; i < batch && err == nil; i++ {
				var ep driver.Machine
				ep, err = newEndpoint(d, arch, seed, 2*i+1)
				keep(ep)
			}
		})
		if err != nil {
			return nil, dc, err
		}
		per := dur / time.Duration(batch)
		dc.build[arch] = per
		m["driver.build_us."+arch] = metric{us(per), "us"}
		if arch == "NetDIMM" {
			m["driver.build_kb.NetDIMM"] = metric{bytes / 1024 / float64(batch), "KiB"}
			m["driver.build_allocs.NetDIMM"] = metric{allocs / float64(batch), "count"}
		}

		for _, dir := range []string{"tx", "rx"} {
			per := w.shape.txPer
			if dir == "rx" {
				per = w.shape.rxPer
			}
			sizes := packetSizes(w.shape, seed, per)
			var dur time.Duration
			var allocs uint64
			n := 0
			for e := 0; e < endpointsFor(per); e++ {
				ep, err := newEndpoint(d, arch, seed, 2*e+1)
				if err != nil {
					return nil, dc, err
				}
				s := t.measure("driver."+dir+"."+arch, func() {
					for i, sz := range sizes {
						p := nic.Packet{ID: uint64(i), Size: sz}
						if dir == "tx" {
							keep(ep.TX(p).Total())
						} else {
							keep(ep.RX(p).Total())
						}
					}
				})
				dur += s.dur
				allocs += s.allocs
				n += per
			}
			perPkt := dur / time.Duration(n)
			if dir == "tx" {
				dc.tx[arch] = perPkt
			} else {
				dc.rx[arch] = perPkt
			}
			m["driver."+dir+"_ns."+arch] = metric{float64(dur.Nanoseconds()) / float64(n), "ns"}
			if arch == "NetDIMM" {
				m["driver."+dir+"_allocs.NetDIMM"] = metric{float64(allocs) / float64(n), "count"}
			}
		}
	}
	return m, dc, nil
}

// fabricCosts are the fabric numbers the unattributed share needs.
type fabricCosts struct {
	build, forward time.Duration
	eventsPerFrame float64
}

func fabricLayer(t *tracer, d *spec.Derived, w *workload, seed uint64) (metrics, fabricCosts, error) {
	sh := w.shape
	var topo *fabric.Topology
	var eng *sim.Engine
	build, _, _ := repeat(t, "fabric.build", 21, func() {
		eng = sim.NewEngine()
		topo = d.NewTopology(fabric.SingleEngine(eng), sh.topoHosts, sh.portBuffer)
	})

	// One frame at a time through an otherwise idle fabric, along the
	// workload's source/destination pattern.
	n := layerTarget
	sizes := packetSizes(sh, seed, n)
	r := sim.NewRand(seed ^ 0xfab)
	src := make([]int, n)
	dst := make([]int, n)
	for i := range src {
		switch {
		case sh.sampleDest:
			src[i] = r.Intn(sh.topoHosts)
			dst[i] = traffic.SampleDest(r, traffic.Database.SampleLocality(r), src[i], sh.topoHosts, topo.Leaves())
		case sh.collective:
			src[i] = i % sh.topoHosts
			dst[i] = (src[i] + 1) % sh.topoHosts
		default:
			src[i] = i % sh.txHosts
			dst[i] = sh.txHosts
		}
	}
	delivered := 0
	fired0 := eng.Fired()
	s := t.measure("fabric.forward", func() {
		for i := 0; i < n; i++ {
			topo.Inject(src[i], dst[i], ethernet.Frame{ID: uint64(i), Bytes: sizes[i]}, func(ethernet.Frame) { delivered++ })
			eng.Run()
		}
	})
	if delivered != n {
		return nil, fabricCosts{}, fmt.Errorf("fabric: delivered %d of %d frames on an idle fabric", delivered, n)
	}
	fc := fabricCosts{
		build:          build,
		forward:        s.dur / time.Duration(n),
		eventsPerFrame: float64(eng.Fired()-fired0) / float64(n),
	}
	return metrics{
		"fabric.build_us":       {us(build), "us"},
		"fabric.forward_ns":     {float64(s.dur.Nanoseconds()) / float64(n), "ns"},
		"fabric.forward_allocs": {float64(s.allocs) / float64(n), "count"},
	}, fc, nil
}

// simLayer times one schedule plus fire with as many self-rearming events
// pending as the cell has sending hosts.
func simLayer(t *tracer, w *workload, seed uint64) (metrics, time.Duration) {
	const fires = 200_000
	eng := sim.NewEngine()
	r := sim.NewRand(seed ^ 0x5e)
	scheduled := 0
	var tick func()
	tick = func() {
		if scheduled < fires {
			scheduled++
			eng.Schedule(r.Exp(sim.Microsecond), tick)
		}
	}
	for i := 0; i < w.shape.txHosts; i++ {
		tick()
	}
	s := t.measure("sim.event", eng.Run)
	per := s.dur / time.Duration(eng.Fired())
	return metrics{"sim.event_ns": {float64(s.dur.Nanoseconds()) / float64(eng.Fired()), "ns"}}, per
}

func workloadLayer(t *tracer, w *workload, seed uint64) (metrics, time.Duration, time.Duration) {
	const n = 100_000
	gen := traffic.NewOpenLoop(traffic.Database, traffic.Poisson, sim.Microsecond, seed)
	next := t.measure("workload.next", func() {
		for i := 0; i < n; i++ {
			keep(gen.Next())
		}
	})
	sh := w.shape
	racks := sh.leaves
	if racks < 1 {
		racks = 1
	}
	r := sim.NewRand(seed ^ 0xde57)
	locs := make([]ethernet.Locality, n)
	for i := range locs {
		locs[i] = traffic.Database.SampleLocality(r)
	}
	acc := 0
	dest := t.measure("workload.dest", func() {
		for i, lo := range locs {
			acc += traffic.SampleDest(r, lo, i%sh.topoHosts, sh.topoHosts, racks)
		}
	})
	keep(acc)
	nextPer, destPer := next.dur/n, dest.dur/n
	return metrics{
		"workload.next_ns": {float64(next.dur.Nanoseconds()) / n, "ns"},
		"workload.dest_ns": {float64(dest.dur.Nanoseconds()) / n, "ns"},
	}, nextPer, destPer
}

// collectiveLayer times plan construction and the sequential reference
// check on the workload's collective shape.
func collectiveLayer(t *tracer, w *workload, seed uint64) (metrics, time.Duration, time.Duration, error) {
	ranks, elems := w.shape.ranks, w.shape.payload/8
	plan, _, _ := repeat(t, "collective.plan", 21, func() { keep(collective.NewPlan(collective.AllReduce, ranks)) })
	r := sim.NewRand(seed ^ 0xc011)
	before := make([][]int64, ranks)
	for i := range before {
		before[i] = make([]int64, elems)
		for j := range before[i] {
			before[i][j] = r.Int63n(1 << 40)
		}
	}
	sum := make([]int64, elems)
	for _, v := range before {
		for j, x := range v {
			sum[j] += x
		}
	}
	after := make([][]int64, ranks)
	for i := range after {
		after[i] = sum
	}
	var err error
	verify, _, _ := repeat(t, "collective.verify", 3, func() { err = collective.Verify(collective.AllReduce, before, after) })
	if err != nil {
		return nil, 0, 0, err
	}
	return metrics{
		"collective.plan_us":   {us(plan), "us"},
		"collective.verify_ms": {ms(verify), "ms"},
	}, plan, verify, nil
}

// statsLayer fills histograms the size of one cell's sample set and reads
// the four statistics every row reports.
func statsLayer(t *tracer, w *workload, seed uint64) (metrics, time.Duration, time.Duration) {
	n := w.shape.samples
	r := sim.NewRand(seed ^ 0x57a7)
	vals := make([]sim.Time, n)
	for i := range vals {
		vals[i] = r.Exp(10 * sim.Microsecond)
	}
	var obsDur time.Duration
	observed := 0
	var pcts []float64
	for observed < 50*layerTarget {
		var h stats.Histogram
		s := t.measure("stats.observe", func() {
			for _, v := range vals {
				h.Observe(v)
			}
		})
		obsDur += s.dur
		observed += n
		p := t.measure("stats.percentile", func() {
			keep(h.Mean() + h.Percentile(50) + h.Percentile(99) + h.Percentile(99.9))
		})
		pcts = append(pcts, float64(p.dur))
	}
	pct := time.Duration(median(pcts))
	return metrics{
		"stats.observe_ns":    {float64(obsDur.Nanoseconds()) / float64(observed), "ns"},
		"stats.percentile_ms": {ms(pct), "ms"},
	}, obsDur / time.Duration(observed), pct
}
