package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"netdimm"
	"netdimm/internal/campaign"
	"netdimm/internal/ethernet"
	"netdimm/internal/fabric"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// benchReport is the JSON document emitted by `netdimm-sim bench`. It is the
// format of BENCH_seed.json at the repository root; regenerate with
//
//	go run ./cmd/netdimm-sim -n 400 bench > BENCH_seed.json
type benchReport struct {
	// GitRevision and GeneratedUTC stamp the report with its provenance so
	// the perf-trajectory tooling can place it in history. Reports produced
	// before the stamps existed load fine with both fields absent.
	GitRevision  string `json:"git_revision,omitempty"`
	GeneratedUTC string `json:"generated_utc,omitempty"`
	// Host identifies the machine the numbers were taken on. Speedups are
	// meaningless without NumCPU: a 1-core host cannot show parallel gain.
	Host struct {
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
	} `json:"host"`
	// Sweeps compares sequential (parallelism=1) against all-cores
	// (parallelism=0) wall-clock for the widest fan-out experiments.
	Sweeps []sweepBench `json:"sweeps"`
	// Engine reports the sim kernel hot path, measured with
	// testing.Benchmark so ns/op and allocs/op match `go test -bench`.
	Engine []engineBench `json:"engine"`
	// Sharded compares one large-host loadsweep cell run on a conservative
	// ShardGroup at shards=1/2/4; Speedup is wall-clock relative to
	// shards=1. On a 1-core host the entries are informational only (the
	// shards contend for the core), but they are always emitted so a
	// multi-core runner's report is comparable.
	Sharded []shardBench `json:"sharded_loadsweep"`
	// DeterminismOK records that parallel and sequential runs produced
	// deep-equal results during this report (the full guard lives in
	// internal/experiments/determinism_test.go).
	DeterminismOK bool `json:"determinism_ok"`
}

type sweepBench struct {
	Name         string  `json:"name"`
	Cells        int     `json:"cells"`
	SequentialMs float64 `json:"sequential_ms"`
	ParallelMs   float64 `json:"parallel_ms"`
	Speedup      float64 `json:"speedup"`
}

type engineBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type shardBench struct {
	Name    string  `json:"name"`
	Shards  int     `json:"shards"`
	WallMs  float64 `json:"wall_ms"`
	Speedup float64 `json:"speedup_vs_shards1"`
}

func runBench() error {
	var rep benchReport
	rep.GitRevision = campaign.GitRevision(".")
	rep.GeneratedUTC = time.Now().UTC().Format(time.RFC3339)
	rep.Host.GOOS = runtime.GOOS
	rep.Host.GOARCH = runtime.GOARCH
	rep.Host.NumCPU = runtime.NumCPU()
	rep.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Host.GoVersion = runtime.Version()
	rep.DeterminismOK = true

	n := *packets
	// The widest-fan-out families, each timed sequential vs all cores and
	// checked for deep-equal output.
	for _, sw := range []struct {
		name, family string
		cells        int
		axes         netdimm.Axes
	}{
		{"fig12a", "fig12a", 16, netdimm.Axes{Packets: n}},
		{"ablation", "ablation", 7, netdimm.Axes{}},
		// 256 hosts over a 2-leaf clos.
		{"racksweep_256h", "racksweep", 6, netdimm.Axes{Packets: n, Racks: []int{2}, Rates: []float64{0.2}}},
	} {
		fmt.Fprintf(os.Stderr, "bench: %s (%d packets/cell) ...\n", sw.name, n)
		fam, _ := netdimm.LookupFamily(sw.family)
		var runs [2]netdimm.FamilyRun // by parallelism: 0 = all cores, 1 = sequential
		sb, err := timeSweep(sw.name, sw.cells, func(parallelism int) (err error) {
			runs[parallelism], err = fam.Run(netdimm.DefaultConfig(), *seed, sw.axes, parallelism)
			return err
		})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			rep.DeterminismOK = false
		}
		rep.Sweeps = append(rep.Sweeps, sb)
	}

	fmt.Fprintf(os.Stderr, "bench: sim engine hot path ...\n")
	rep.Engine = append(rep.Engine,
		engineResult("EngineSchedule", benchEngineSchedule),
		engineResult("EngineCancel", benchEngineCancel),
		engineResult("FabricForward", benchFabricForward),
	)

	fmt.Fprintf(os.Stderr, "bench: sharded loadsweep cell (%d packets, 32 hosts) ...\n", n)
	sharded, identical, err := benchSharded(n)
	if err != nil {
		return err
	}
	if !identical {
		rep.DeterminismOK = false
	}
	rep.Sharded = sharded

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// timeSweep runs body sequentially and with all cores, reporting wall-clock
// for each. The sequential run goes first so the parallel run cannot win by
// warmed caches alone.
func timeSweep(name string, cells int, body func(parallelism int) error) (sweepBench, error) {
	b := sweepBench{Name: name, Cells: cells}
	t0 := time.Now()
	if err := body(1); err != nil {
		return b, err
	}
	b.SequentialMs = ms(time.Since(t0))
	t0 = time.Now()
	if err := body(0); err != nil {
		return b, err
	}
	b.ParallelMs = ms(time.Since(t0))
	if b.ParallelMs > 0 {
		b.Speedup = b.SequentialMs / b.ParallelMs
	}
	return b, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func engineResult(name string, fn func(b *testing.B)) engineBench {
	r := testing.Benchmark(fn)
	return engineBench{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// benchSharded times the same large-host loadsweep (32 senders, one load
// point, all three architectures run back to back with no cross-cell
// parallelism) at shards=1, 2 and 4, and verifies along the way that the
// three runs returned deep-equal results — the bench-time echo of
// TestLoadSweepShardedDeterminism.
func benchSharded(packets int) ([]shardBench, bool, error) {
	fam, _ := netdimm.LookupFamily("loadsweep")
	var out []shardBench
	var ref netdimm.FamilyRun
	var base float64
	identical := true
	for _, s := range []int{1, 2, 4} {
		t0 := time.Now()
		run, err := fam.Run(netdimm.DefaultConfig(), *seed,
			netdimm.Axes{Packets: packets, Rates: []float64{0.14}, Hosts: 32, Shards: s}, 1)
		if err != nil {
			return nil, false, err
		}
		b := shardBench{Name: "loadsweep_cell", Shards: s, WallMs: ms(time.Since(t0))}
		if s == 1 {
			ref = run
			base = b.WallMs
		} else if !reflect.DeepEqual(run, ref) {
			identical = false
		}
		if b.WallMs > 0 {
			b.Speedup = base / b.WallMs
		}
		out = append(out, b)
	}
	return out, identical, nil
}

func benchNop() {}

// benchEngineSchedule mirrors BenchmarkEngineSchedule in internal/sim: one
// At+fire round trip per op against a warm arena.
func benchEngineSchedule(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(sim.Time(i), benchNop)
		e.RunUntil(sim.Time(i))
	}
}

// benchFabricForward measures one cross-rack traversal of the leaf/spine
// clos per op: uplink, source leaf, ECMP-picked spine and destination leaf
// (three switch hops), with the engine drained each round so the queues
// stay warm but empty.
func benchFabricForward(b *testing.B) {
	sp := spec.TableOne()
	sp.Fabric.Leaves = 2
	sp.Fabric.Spines = 2
	d := sp.MustDerive()
	eng := sim.NewEngine()
	topo := d.NewTopology(fabric.SingleEngine(eng), 8, 64)
	src, dst := 0, 5 // host 5 sits in the other leaf: the full 3-hop path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delivered := false
		topo.Inject(src, dst, ethernet.Frame{ID: uint64(i), Bytes: 1500},
			func(ethernet.Frame) { delivered = true })
		eng.Run()
		if !delivered {
			b.Fatal("frame not delivered")
		}
	}
}

// benchEngineCancel mirrors BenchmarkEngineCancel: one schedule→cancel→reap
// cycle per op so dead events do not accumulate in the heap.
func benchEngineCancel(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.Schedule(10, benchNop)
		e.Cancel(id)
		e.Run()
	}
}
