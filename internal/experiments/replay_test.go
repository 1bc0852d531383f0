package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"netdimm/internal/fault"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/trace"
	"netdimm/internal/workload"
)

func TestReplayTrace(t *testing.T) {
	events := workload.NewGenerator(workload.Webserver, 0, 5).Generate(300)
	rows, err := ReplayTrace(spec.TableOne(), events, 100*sim.Nanosecond, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]ReplayResult{}
	for _, r := range rows {
		byName[r.Arch] = r
		if r.Packets != 300 {
			t.Fatalf("%s packets = %d", r.Arch, r.Packets)
		}
		if !(r.P50 <= r.P99) {
			t.Fatalf("%s percentiles inverted", r.Arch)
		}
	}
	if !(byName["NetDIMM"].Mean < byName["iNIC"].Mean &&
		byName["iNIC"].Mean < byName["dNIC"].Mean) {
		t.Fatalf("replay ordering violated: %+v", byName)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	if _, err := ReplayTrace(spec.TableOne(), nil, 100*sim.Nanosecond, 1, 0); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestReplayTraceFileBadStream(t *testing.T) {
	r := bytes.NewReader([]byte("this is not a trace stream"))
	if _, _, err := ReplayTraceFile(spec.TableOne(), r, 100*sim.Nanosecond, 1, 0); err == nil {
		t.Fatal("malformed stream accepted")
	}
}

func TestFaultEndpointsUnknownArch(t *testing.T) {
	d := spec.TableOne().MustDerive()
	eng := sim.NewEngine()
	inj := fault.NewInjector(fault.Spec{}, 1)
	if _, _, _, err := faultEndpoints(d, "quantum", fault.Spec{}, eng, inj, 1); err == nil ||
		!strings.Contains(err.Error(), "unknown architecture") {
		t.Fatalf("err = %v", err)
	}
}

func TestReplayTraceFileRoundTrip(t *testing.T) {
	events := workload.NewGenerator(workload.Hadoop, 0, 9).Generate(150)
	var buf bytes.Buffer
	h := trace.Header{Cluster: workload.Hadoop, Seed: 9, Count: 150}
	if err := trace.Write(&buf, h, events); err != nil {
		t.Fatal(err)
	}
	gotH, rows, err := ReplayTraceFile(spec.TableOne(), &buf, 100*sim.Nanosecond, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gotH.Cluster != workload.Hadoop || len(rows) != 3 {
		t.Fatalf("header %+v rows %d", gotH, len(rows))
	}
}

func TestMixedChannel(t *testing.T) {
	res, _, err := MixedChannelObserved(spec.TableOne(), 300, 4, obs.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DDRReads == 0 || res.NetDIMMReads == 0 {
		t.Fatalf("degenerate mix: %+v", res)
	}
	// The whole point of the asynchronous protocol: NetDIMM reads are
	// slower and non-deterministic, yet the channel serves DDR reads at
	// DDR latency — mixing works.
	if res.DDRMean <= 0 || res.NetDIMMMean <= 0 {
		t.Fatalf("missing latencies: %+v", res)
	}
	if res.NetDIMMMean <= res.DDRMean {
		t.Fatalf("NetDIMM reads %v should exceed DDR reads %v",
			res.NetDIMMMean, res.DDRMean)
	}
	if res.DDRMean > 200*time.Nanosecond {
		t.Fatalf("DDR latency %v inflated by NetDIMM traffic", res.DDRMean)
	}
	if res.MaxOutstandingIDs < 1 {
		t.Fatal("no concurrent asynchronous transactions")
	}
}

func TestMixedChannelOutOfOrder(t *testing.T) {
	res, _, err := MixedChannelObserved(spec.TableOne(), 400, 11, obs.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	// The asynchronous protocol's raison d'etre: fast nCache hits overtake
	// older in-flight misses.
	if res.OutOfOrder == 0 {
		t.Fatalf("no out-of-order completions observed: %+v", res)
	}
}
