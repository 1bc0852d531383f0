package netdimm

import (
	"strings"
	"testing"
	"time"

	"netdimm/internal/workload"
)

func TestMachineNames(t *testing.T) {
	if testDNIC(t, false).Name() != "dNIC" || testDNIC(t, true).Name() != "dNIC.zcpy" {
		t.Fatal("dNIC names wrong")
	}
	if testINIC(t, false).Name() != "iNIC" {
		t.Fatal("iNIC name wrong")
	}
	if testNetDIMM(t, 1).Name() != "NetDIMM" {
		t.Fatal("NetDIMM name wrong")
	}
}

func TestOneWayLatencyAPI(t *testing.T) {
	tx, rx := testNetDIMM(t, 1), testNetDIMM(t, 2)
	lat, err := OneWayLatencyWithConfig(DefaultConfig(), tx, rx, 256, 100*time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Total <= 0 || lat.Total > 10*time.Microsecond {
		t.Fatalf("Total = %v", lat.Total)
	}
	sum := lat.TxCopy + lat.RxCopy + lat.TxDMA + lat.RxDMA + lat.Wire +
		lat.IOReg + lat.TxFlush + lat.RxInvalidate
	if diff := sum - lat.Total; diff > 8 || diff < -8 {
		t.Fatalf("components %v do not sum to total %v", sum, lat.Total)
	}
	if lat.TxFlush == 0 || lat.RxInvalidate == 0 {
		t.Fatal("NetDIMM coherency components missing")
	}
	if !strings.Contains(lat.String(), "total=") {
		t.Fatal("String missing total")
	}
}

func TestOneWayLatencyErrors(t *testing.T) {
	tx := testDNIC(t, false)
	if _, err := OneWayLatencyWithConfig(DefaultConfig(), tx, tx, 0, time.Microsecond); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := OneWayLatencyWithConfig(DefaultConfig(), nil, tx, 64, time.Microsecond); err == nil {
		t.Error("nil machine accepted")
	}
}

func TestOneWayOrderingViaAPI(t *testing.T) {
	ndTX, ndRX := testNetDIMM(t, 1), testNetDIMM(t, 2)
	nd, _ := OneWayLatencyWithConfig(DefaultConfig(), ndTX, ndRX, 1024, 100*time.Nanosecond)
	in, _ := OneWayLatencyWithConfig(DefaultConfig(), testINIC(t, false), testINIC(t, false), 1024, 100*time.Nanosecond)
	dn, _ := OneWayLatencyWithConfig(DefaultConfig(), testDNIC(t, false), testDNIC(t, false), 1024, 100*time.Nanosecond)
	if !(nd.Total < in.Total && in.Total < dn.Total) {
		t.Fatalf("ordering: ND %v iNIC %v dNIC %v", nd.Total, in.Total, dn.Total)
	}
}

func TestConfigTable(t *testing.T) {
	tbl := DefaultConfig().Table()
	for _, want := range []string{"8, 3.4GHz", "DDR4-2400", "40GbE", "x8 PCIe Gen4"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table missing %q:\n%s", want, tbl)
		}
	}
}

func TestRunFig4Defaults(t *testing.T) {
	rows := must[[]Fig4Result](t)(RunFig4WithConfig(DefaultConfig(), nil, 100*time.Nanosecond, 0))
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want the 8 paper sizes", len(rows))
	}
	for _, r := range rows {
		if !(r.INICZcpy < r.INIC && r.INIC < r.DNIC) {
			t.Errorf("size %d ordering violated", r.Size)
		}
	}
}

func TestRunFig11Defaults(t *testing.T) {
	rows, err := RunFig11WithConfig(DefaultConfig(), []int{64, 1024}, 100*time.Nanosecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ReductionVsDNIC < 0.35 || r.ReductionVsDNIC > 0.65 {
			t.Errorf("size %d: reduction %.2f", r.Size, r.ReductionVsDNIC)
		}
	}
}

func TestRunFig7(t *testing.T) {
	pts := must[[]Fig7Result](t)(RunFig7WithConfig(DefaultConfig()))
	if len(pts) != 144 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].RelCacheline != 0 || pts[0].RelTime != 0 {
		t.Fatal("first point should be the origin")
	}
}

func TestGenerateTrace(t *testing.T) {
	evs := must[[]TraceEvent](t)(GenerateTrace(Webserver, 200, 9))
	if len(evs) != 200 {
		t.Fatalf("events = %d", len(evs))
	}
	small := 0
	for _, e := range evs {
		if e.Size < 300 {
			small++
		}
		if e.Locality == "" {
			t.Fatal("missing locality")
		}
	}
	if small < 150 {
		t.Fatalf("webserver trace small fraction = %d/200", small)
	}
	// Determinism across calls.
	evs2 := must[[]TraceEvent](t)(GenerateTrace(Webserver, 200, 9))
	if evs[100] != evs2[100] {
		t.Fatal("trace not deterministic")
	}
}

// TestClusterMapping checks that every public cluster name resolves to the
// internal cluster of the same name, and that a misspelled one is an error
// rather than a silent database trace.
func TestClusterMapping(t *testing.T) {
	for _, c := range AllClusters {
		cl, err := workload.ParseCluster(string(c))
		if err != nil || cl.String() != string(c) {
			t.Errorf("cluster %s maps to %v, %v", c, cl, err)
		}
		if _, err := GenerateTrace(c, 10, 1); err != nil {
			t.Errorf("GenerateTrace(%s): %v", c, err)
		}
	}
	if evs, err := GenerateTrace("hadop", 10, 1); err == nil || !strings.Contains(err.Error(), `"hadop"`) {
		t.Errorf(`GenerateTrace("hadop") = %d events, err %v; want an error naming the cluster`, len(evs), err)
	}
}
