package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"netdimm"
	"netdimm/internal/experiments"
	"netdimm/internal/nic"
)

// archs is the architecture axis every sweep runs, in row order.
var archs = []string{"dNIC", "iNIC", "NetDIMM"}

// cell is one sweep row as the benchmark checks it: the row rendered to
// one line (its SHA-256 is the pinned digest) plus the tallies the
// conservation checks read.
type cell struct {
	arch string
	row  string
	// packets is the arrivals the cell offered; 0 when the family has no
	// open-loop arrival count (collsweep).
	packets   int
	delivered int
	dropped   int
	// frames is the fabric frames the cell injected.
	frames int
	marked int
}

// digest is the cell's pinned output digest.
func (c cell) digest() string {
	sum := sha256.Sum256([]byte(c.row))
	return hex.EncodeToString(sum[:])
}

// check returns why the cell's own accounting is wrong, or nil. Open-loop
// cells conserve packets (each is delivered or dropped exactly once);
// collective cells must drop nothing.
func (c cell) check() error {
	if c.packets > 0 && c.delivered+c.dropped != c.packets {
		return fmt.Errorf("%s: delivered %d + dropped %d != %d packets", c.row, c.delivered, c.dropped, c.packets)
	}
	if c.packets == 0 && c.dropped != 0 {
		return fmt.Errorf("%s: collective dropped %d frames", c.row, c.dropped)
	}
	return nil
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// workload is one benchmark input: a sweep through the public facade at
// parallelism 1, plus the cell shape the set-up and layer measurements
// rebuild from the internal packages.
type workload struct {
	name string
	// cfg is the system the sweep runs on.
	cfg netdimm.Config
	// sweep runs the full grid; point runs the one-point grid whose cells
	// are pointCells of the full grid. With observed set, the sweep runs
	// through Run*Observed with the metrics registry on and also returns
	// the registry as CSV.
	sweep func(seed uint64, observed bool) ([]cell, string, error)
	point func(seed uint64) ([]cell, error)
	// pointCells indexes the full grid's cells the one-point grid repeats.
	pointCells []int
	shape      shape
}

// shape is the per-cell geometry of a workload: what one cell builds and
// how much traffic one endpoint handles.
type shape struct {
	// txHosts and rxHosts count the sending and receiving endpoints one
	// cell builds per architecture.
	txHosts, rxHosts int
	// rxSeedBase is the first receiver's index in the NetDIMM seed
	// sequence (seed + 2*i + 2): 0 when every host receives, hosts for the
	// single incast receiver.
	rxSeedBase int
	// topoHosts, leaves and spines give the cell's fabric; 0 leaves and
	// spines keep the fabric defaults.
	topoHosts, leaves, spines, portBuffer int
	// txPer and rxPer are packets one TX and one RX endpoint handle in a
	// cell; samples is the latency histogram size of one cell.
	txPer, rxPer, samples int
	// mtuFrames selects full-size frames instead of the cluster size mix.
	mtuFrames bool
	// ranks and payload give the collective the collective layer is timed
	// on; only the families marked collective run one in their cells.
	ranks, payload int
	// collective marks the families whose cells run a collective plan and
	// Verify; sampleDest marks those whose hosts draw destinations.
	collective, sampleDest bool
	// packets is the arrivals one open-loop cell offers; 0 for collsweep.
	packets int
}

// scale shrinks a workload for the self-tests: fewer hosts and packets,
// the same code paths.
type scale struct {
	rackHosts, rackPackets     int
	incastHosts, incastPackets int
	ranks, payload             int
	// digests holds each workload's pinned cell digests at defaultSeed.
	digests map[string][]string
}

var fullScale = scale{
	rackHosts: 256, rackPackets: 4000,
	incastHosts: 32, incastPackets: 50_000,
	ranks: 64, payload: 1 << 20,
	digests: pinnedDigests,
}

// workloads returns the benchmark's workloads at the given scale.
func workloads(s scale) []*workload {
	return []*workload{rackWorkload(s), incastWorkload(s), allreduceWorkload(s)}
}

func findWorkload(name string, s scale) (*workload, error) {
	var names []string
	for _, w := range workloads(s) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

var (
	rackLoads   = []float64{0.1, 0.4}
	incastLoads = []float64{0.08, 0.14}
)

const rackRacks = 2

// rackWorkload is racksweep at 256 hosts: every cell builds 512 machines
// for ~16 packets per host, so NetDIMM construction dominates host time,
// and load 0.4 congests the spine (drops and ECN marks).
func rackWorkload(s scale) *workload {
	cfg := netdimm.DefaultConfig()
	cfg.Load.Hosts = s.rackHosts
	perHost := s.rackPackets / s.rackHosts
	return &workload{
		name: "rack256",
		cfg:  cfg,
		sweep: func(seed uint64, observed bool) ([]cell, string, error) {
			return rackSweep(cfg, rackLoads, s.rackPackets, seed, observed)
		},
		point: func(seed uint64) ([]cell, error) {
			cells, _, err := rackSweep(cfg, rackLoads[:1], s.rackPackets, seed, false)
			return cells, err
		},
		// Rows run arch x ECN x load; the one-point grid keeps load 0.1.
		pointCells: []int{0, 2, 4, 6, 8, 10},
		shape: shape{
			txHosts: s.rackHosts, rxHosts: s.rackHosts,
			topoHosts: s.rackHosts, leaves: rackRacks,
			spines:     rackSpines(s.rackHosts, rackRacks),
			portBuffer: 64,
			txPer:      perHost, rxPer: perHost, samples: s.rackPackets,
			sampleDest: true, packets: s.rackPackets,
			ranks: s.ranks, payload: s.payload,
		},
	}
}

// rackSpines is the racksweep's default spine count: one spine per eight
// hosts in a rack, at least two.
func rackSpines(hosts, racks int) int {
	s := ((hosts+racks-1)/racks + 7) / 8
	if s < 2 {
		s = 2
	}
	return s
}

func rackSweep(cfg netdimm.Config, loads []float64, packets int, seed uint64, observed bool) ([]cell, string, error) {
	var rows []netdimm.RackSweepResult
	var csv string
	var err error
	if observed {
		cfg.Obs.Metrics = true
		var ob *netdimm.Observation
		rows, _, ob, err = netdimm.RunRackSweepObserved(cfg, []int{rackRacks}, loads, packets, seed, 1)
		csv = ob.MetricsCSV()
	} else {
		rows, _, err = netdimm.RunRackSweepWithConfig(cfg, []int{rackRacks}, loads, packets, seed, 1)
	}
	if err != nil {
		return nil, "", err
	}
	return rackCells(rows, packets), csv, nil
}

func rackCells(rows []netdimm.RackSweepResult, packets int) []cell {
	cells := make([]cell, len(rows))
	for i, r := range rows {
		cells[i] = cell{
			arch: r.Arch,
			row: fmt.Sprintf("%s,racks=%d,ecn=%t,load=%s,mean=%d,p50=%d,p99=%d,p999=%d,delivered=%d,dropped=%d,marked=%d,cross=%d,leafmax=%d,spinemax=%d,rxmax=%d,util=%s",
				r.Arch, r.Racks, r.ECN, fmtFloat(r.OfferedLoad), r.Mean, r.P50, r.P99, r.P999,
				r.Delivered, r.Dropped, r.Marked, r.CrossRack, r.LeafMaxDepth, r.SpineMaxDepth,
				r.RxMaxDepth, fmtFloat(r.LinkUtilization)),
			packets: packets, delivered: r.Delivered, dropped: r.Dropped,
			frames: r.Delivered + r.Dropped, marked: r.Marked,
		}
	}
	return cells
}

// incastWorkload is loadsweep with 32 senders: every cell builds only 33
// machines for 50,000 packets, so per-packet work dominates. It is the
// counter-workload for construction-only changes.
func incastWorkload(s scale) *workload {
	cfg := netdimm.DefaultConfig()
	cfg.Load.Hosts = s.incastHosts
	return &workload{
		name: "incast32",
		cfg:  cfg,
		sweep: func(seed uint64, observed bool) ([]cell, string, error) {
			return incastSweep(cfg, incastLoads, s.incastPackets, seed, observed)
		},
		point: func(seed uint64) ([]cell, error) {
			cells, _, err := incastSweep(cfg, incastLoads[:1], s.incastPackets, seed, false)
			return cells, err
		},
		// Rows run arch x load; the one-point grid keeps load 0.08.
		pointCells: []int{0, 2, 4},
		shape: shape{
			txHosts: s.incastHosts, rxHosts: 1, rxSeedBase: s.incastHosts,
			topoHosts: s.incastHosts + 1, portBuffer: 64,
			txPer: s.incastPackets / s.incastHosts, rxPer: s.incastPackets,
			samples: s.incastPackets, packets: s.incastPackets,
			ranks: s.ranks, payload: s.payload,
		},
	}
}

func incastSweep(cfg netdimm.Config, loads []float64, packets int, seed uint64, observed bool) ([]cell, string, error) {
	var rows []netdimm.LoadSweepResult
	var csv string
	var err error
	if observed {
		cfg.Obs.Metrics = true
		var ob *netdimm.Observation
		rows, _, ob, err = netdimm.RunLoadSweepObserved(cfg, loads, packets, seed, 1)
		csv = ob.MetricsCSV()
	} else {
		rows, _, err = netdimm.RunLoadSweepWithConfig(cfg, loads, packets, seed, 1)
	}
	if err != nil {
		return nil, "", err
	}
	return incastCells(rows, packets), csv, nil
}

func incastCells(rows []netdimm.LoadSweepResult, packets int) []cell {
	cells := make([]cell, len(rows))
	for i, r := range rows {
		cells[i] = cell{
			arch: r.Arch,
			row: fmt.Sprintf("%s,load=%s,mean=%d,p50=%d,p99=%d,p999=%d,delivered=%d,dropped=%d,egressmax=%d,egressdelay=%d,rxmax=%d,util=%s",
				r.Arch, fmtFloat(r.OfferedLoad), r.Mean, r.P50, r.P99, r.P999, r.Delivered, r.Dropped,
				r.EgressMaxDepth, r.EgressQueueDelay, r.RxMaxDepth, fmtFloat(r.LinkUtilization)),
			packets: packets, delivered: r.Delivered, dropped: r.Dropped,
			frames: r.Delivered + r.Dropped,
		}
	}
	return cells
}

// allreduceWorkload is collsweep's ring allreduce on 64 ranks with 1 MiB
// payloads: full-size frames through the same fabric as rackWorkload, no
// drops, and the collective executor and Verify in every cell.
func allreduceWorkload(s scale) *workload {
	cfg := netdimm.DefaultConfig()
	cfg.Collective.PayloadBytes = s.payload
	// Each ring step moves payload/ranks bytes, fragmented into MTU
	// frames; every rank sends and receives 2(ranks-1) such messages.
	framesPerRank := 2 * (s.ranks - 1) * ((s.payload/s.ranks + nic.MTU - 1) / nic.MTU)
	return &workload{
		name: "allreduce64",
		cfg:  cfg,
		sweep: func(seed uint64, observed bool) ([]cell, string, error) {
			return allreduceSweep(cfg, s.ranks, seed, observed)
		},
		// The grid is already one point: one op, one rank count.
		point: func(seed uint64) ([]cell, error) {
			cells, _, err := allreduceSweep(cfg, s.ranks, seed, false)
			return cells, err
		},
		pointCells: []int{0, 1, 2},
		shape: shape{
			txHosts: s.ranks, rxHosts: s.ranks,
			topoHosts: s.ranks, portBuffer: experiments.DefaultCollPortBuffer,
			txPer: framesPerRank, rxPer: framesPerRank, samples: 2 * (s.ranks - 1) * s.ranks,
			mtuFrames: true, ranks: s.ranks, payload: s.payload, collective: true,
		},
	}
}

func allreduceSweep(cfg netdimm.Config, ranks int, seed uint64, observed bool) ([]cell, string, error) {
	var rows []netdimm.CollSweepResult
	var csv string
	var err error
	r, ops := []int{ranks}, []string{"allreduce"}
	if observed {
		cfg.Obs.Metrics = true
		var ob *netdimm.Observation
		rows, ob, err = netdimm.RunCollSweepObserved(cfg, r, ops, seed, 1)
		csv = ob.MetricsCSV()
	} else {
		rows, err = netdimm.RunCollSweepWithConfig(cfg, r, ops, seed, 1)
	}
	if err != nil {
		return nil, "", err
	}
	return collCells(rows), csv, nil
}

func collCells(rows []netdimm.CollSweepResult) []cell {
	cells := make([]cell, len(rows))
	for i, r := range rows {
		cells[i] = cell{
			arch: r.Arch,
			row: fmt.Sprintf("%s,op=%s,ranks=%d,payload=%d,steps=%d,completion=%d,skew=%d,wire=%d,frames=%d,delivered=%d,dropped=%d,marked=%d,util=%s",
				r.Arch, r.Op, r.Ranks, r.PayloadBytes, r.Steps, r.Completion, r.StepSkew, r.BytesOnWire,
				r.Frames, r.Delivered, r.Dropped, r.Marked, fmtFloat(r.LinkUtilization)),
			delivered: r.Delivered, dropped: r.Dropped, frames: r.Frames + r.Dropped, marked: r.Marked,
		}
	}
	return cells
}

// cellEvents sums every "*.engine.fired" counter of each cell in an
// observed run's metrics CSV, in cell order.
func cellEvents(metricsCSV string) ([]int64, error) {
	recs, err := csv.NewReader(bytes.NewBufferString(metricsCSV)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("metrics csv: %w", err)
	}
	var out []int64
	last := ""
	for i, r := range recs {
		if i == 0 || len(r) < 4 {
			continue
		}
		if r[0] != last {
			out = append(out, 0)
			last = r[0]
		}
		if r[1] == "counter" && strings.HasSuffix(r[2], ".engine.fired") {
			v, err := strconv.ParseInt(r[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("metrics csv: %s %s: %w", r[0], r[2], err)
			}
			out[len(out)-1] += v
		}
	}
	return out, nil
}
