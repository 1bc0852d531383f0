package experiments

import (
	"reflect"
	"strings"
	"testing"

	"netdimm/internal/fault"
	"netdimm/internal/netfunc"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/workload"
)

// The parallel fan-out must be invisible in the results: every sweep runs
// each cell on a fresh engine with per-cell seeds and writes only its own
// pre-sized slice index, so parallelism=8 must produce output deep-equal to
// parallelism=1. This is the guard for that contract — if a future change
// introduces shared mutable state across cells, one of these cases fails
// (and `go test -race ./internal/experiments/...` pinpoints the write).
func TestParallelMatchesSequential(t *testing.T) {
	fig5cfg := DefaultFig5Config()
	fig5cfg.Duration = 200 * sim.Microsecond
	fig12bcfg := DefaultFig12bConfig()
	fig12bcfg.Duration = 100 * sim.Microsecond

	cases := []struct {
		name string
		run  func(parallelism int) (any, error)
	}{
		{"Fig4", func(p int) (any, error) {
			return Fig4(spec.TableOne(), []int{10, 200, 2000}, 100*sim.Nanosecond, p), nil
		}},
		{"Fig5", func(p int) (any, error) {
			return Fig5(spec.TableOne(), []sim.Time{sim.Second, 100 * sim.Nanosecond, 5 * sim.Nanosecond}, fig5cfg, p), nil
		}},
		{"Fig11", func(p int) (any, error) {
			rows, _, err := Fig11Observed(spec.TableOne(), []int{64, 1024}, 100*sim.Nanosecond, p, obs.Spec{})
			return rows, err
		}},
		{"Fig12a", func(p int) (any, error) {
			return Fig12a(spec.TableOne(), workload.Clusters, PaperSwitchLatencies[:2], 60, 3, p)
		}},
		{"Fig12b", func(p int) (any, error) {
			return Fig12b(spec.TableOne(), workload.Clusters[:2], []netfunc.Kind{netfunc.DPI, netfunc.L3F}, fig12bcfg, p), nil
		}},
		{"PrefetchAblation", func(p int) (any, error) {
			return PrefetchAblation(spec.TableOne(), []int{0, 2, 4}, 15, p), nil
		}},
		{"HeaderCacheAblation", func(p int) (any, error) {
			return HeaderCacheAblation(spec.TableOne(), 60, p), nil
		}},
		{"Bandwidth", func(p int) (any, error) {
			return Bandwidth(spec.TableOne(), 100, p)
		}},
		{"ReplayTrace", func(p int) (any, error) {
			gen := workload.NewGenerator(workload.Hadoop, 0, 5)
			return ReplayTrace(spec.TableOne(), gen.Generate(150), 100*sim.Nanosecond, 9, p)
		}},
		{"LoadSweep", func(p int) (any, error) {
			cfg := DefaultLoadSweepConfig()
			cfg.Packets = 120
			rows, knees, _, err := LoadSweepObserved(spec.TableOne(), []float64{0.05, 0.14, 0.2}, cfg, p, obs.Spec{})
			return []any{rows, knees}, err
		}},
		{"RackSweep", func(p int) (any, error) {
			sp := spec.TableOne()
			sp.Load.Hosts = 12
			cfg := DefaultRackSweepConfig()
			cfg.Packets = 240
			rows, knees, _, err := RackSweepObserved(sp, []int{2}, []float64{0.1, 0.5}, cfg, p, obs.Spec{})
			return []any{rows, knees}, err
		}},
		{"FailSweep", func(p int) (any, error) {
			sp := spec.TableOne()
			sp.Load.Hosts = 12
			cfg := DefaultFailSweepConfig()
			cfg.Packets = 240
			rows, _, err := FailSweepObserved(sp, []sim.Time{0, 20 * sim.Microsecond}, cfg, p, obs.Spec{})
			return rows, err
		}},
		{"FaultSweep", func(p int) (any, error) {
			sp := spec.TableOne()
			sp.Fault.CorruptProb = 0.002
			sp.Fault.MaxRetries = 8
			sp.Fault.MemTimeoutProb = 0.05
			sp.Fault.MemMaxRetries = 4
			cfg := DefaultFaultSweepConfig()
			cfg.Packets = 80
			rows, _, err := FaultSweepObserved(sp, []float64{0, 0.02, 0.1}, cfg, p, obs.Spec{})
			return rows, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := tc.run(1)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			par, err := tc.run(8)
			if err != nil {
				t.Fatalf("parallel(8): %v", err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("parallel(8) diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
			}
		})
	}
}

// The headline suite composes three sweeps; guard it end to end (it is the
// slowest case, so skip under -short).
func TestHeadlineParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("headline determinism check skipped under -short")
	}
	seq, err := RunHeadline(spec.TableOne(), 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunHeadline(spec.TableOne(), 80, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("headline parallel(8) diverged:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestLoadSweepShardedDeterminism is the sharded-engine contract at the
// experiment level: the identical model partitioned across 1, 2 or 4
// conservative shards must produce byte-identical output — rows, knees,
// the rendered metrics table and the Chrome trace export. shards=1 is the
// reference because it runs the full window/merge machinery with every
// component on one shard.
func TestLoadSweepShardedDeterminism(t *testing.T) {
	run := func(shards int) ([]LoadRow, []LoadKnee, string, string) {
		t.Helper()
		sp := spec.TableOne()
		sp.Load.Shards = shards
		cfg := DefaultLoadSweepConfig()
		cfg.Packets = 120
		rows, knees, o, err := LoadSweepObserved(sp, []float64{0.05, 0.14, 0.2}, cfg, 2,
			obs.Spec{Metrics: true, Trace: true})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var tr strings.Builder
		if err := o.WriteTrace(&tr); err != nil {
			t.Fatalf("shards=%d trace: %v", shards, err)
		}
		return rows, knees, o.MetricsCSV(), tr.String()
	}
	rows1, knees1, csv1, trace1 := run(1)
	for _, shards := range []int{2, 4} {
		rows, knees, csv, trace := run(shards)
		if !reflect.DeepEqual(rows, rows1) {
			t.Errorf("shards=%d rows diverged from shards=1", shards)
		}
		if !reflect.DeepEqual(knees, knees1) {
			t.Errorf("shards=%d knees diverged from shards=1", shards)
		}
		if csv != csv1 {
			t.Errorf("shards=%d metrics CSV diverged from shards=1", shards)
		}
		if trace != trace1 {
			t.Errorf("shards=%d trace bytes diverged from shards=1", shards)
		}
	}
}

// TestRackSweepShardedDeterminism extends the sharded contract to the
// clos: many-to-many traffic with ECN echo channels partitioned across 1,
// 2 or 4 shards must still be byte-identical — the host→fabric crossings,
// the fabric→host mark echoes and every per-host tally are confined to
// deterministic channel windows.
// TestFailSweepShardedDeterminism is the failure plane's determinism
// contract: outage flips, health-aware ECMP, burst loss and ARQ
// retransmit timers partitioned across 1, 2 or 4 shards must still be
// byte-identical — the health view lives wholly on the fabric shard,
// per-host link outages wholly on their host shards, and the ack echoes
// ride the same deterministic channel windows as ECN marks.
func TestFailSweepShardedDeterminism(t *testing.T) {
	run := func(shards int) ([]FailRow, string) {
		t.Helper()
		sp := spec.TableOne()
		sp.Load.Hosts = 12
		sp.Load.Shards = shards
		sp.Fault.Failure.Burst = fault.Burst{
			GoodLossProb: 0.001, BadLossProb: 0.2, GoodToBad: 0.02, BadToGood: 0.2,
		}
		cfg := DefaultFailSweepConfig()
		cfg.Packets = 240
		rows, o, err := FailSweepObserved(sp, []sim.Time{0, 20 * sim.Microsecond}, cfg, 2,
			obs.Spec{Metrics: true})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return rows, o.MetricsCSV()
	}
	rows1, csv1 := run(1)
	rerouted := false
	for _, r := range rows1 {
		if r.Rerouted > 0 {
			rerouted = true
		}
	}
	if !rerouted {
		t.Error("no cell rerouted any frame; the failover path is not being exercised")
	}
	for _, shards := range []int{2, 4} {
		rows, csv := run(shards)
		if !reflect.DeepEqual(rows, rows1) {
			t.Errorf("shards=%d rows diverged from shards=1", shards)
		}
		if csv != csv1 {
			t.Errorf("shards=%d metrics CSV diverged from shards=1", shards)
		}
	}
}

func TestRackSweepShardedDeterminism(t *testing.T) {
	run := func(shards int) ([]RackRow, []RackKnee, string) {
		t.Helper()
		sp := spec.TableOne()
		sp.Load.Hosts = 12
		sp.Load.Shards = shards
		// Mark on any queued frame so the fabric→host echo channel — the
		// only traffic flowing against the shard partition — carries real
		// load in this small configuration.
		sp.Fabric.ECNThreshold = 1
		cfg := DefaultRackSweepConfig()
		cfg.Packets = 240
		rows, knees, o, err := RackSweepObserved(sp, []int{2}, []float64{0.1, 0.5}, cfg, 2,
			obs.Spec{Metrics: true})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return rows, knees, o.MetricsCSV()
	}
	rows1, knees1, csv1 := run(1)
	marked := false
	for _, r := range rows1 {
		if r.Marked > 0 {
			marked = true
		}
	}
	if !marked {
		t.Error("no cell marked any frame; the ECN echo path is not being exercised")
	}
	for _, shards := range []int{2, 4} {
		rows, knees, csv := run(shards)
		if !reflect.DeepEqual(rows, rows1) {
			t.Errorf("shards=%d rows diverged from shards=1", shards)
		}
		if !reflect.DeepEqual(knees, knees1) {
			t.Errorf("shards=%d knees diverged from shards=1", shards)
		}
		if csv != csv1 {
			t.Errorf("shards=%d metrics CSV diverged from shards=1", shards)
		}
	}
}
