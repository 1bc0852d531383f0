// Package experiments assembles full systems from the substrate packages
// and regenerates every table and figure of the paper's evaluation:
//
//	Fig. 4   — one-way latency of dNIC / dNIC.zcpy / iNIC / iNIC.zcpy with
//	           the PCIe overhead share (motivation, Sec. 3)
//	Fig. 5   — iperf bandwidth under memory pressure (motivation, Sec. 3)
//	Fig. 7   — spatial/temporal locality of NIC DMA accesses (Sec. 4.1)
//	Fig. 11  — one-way latency breakdown for dNIC / iNIC / NetDIMM (Sec. 5.2)
//	Fig. 12a — per-packet latency on Facebook-like cluster traces across
//	           switch latencies (Sec. 5.3)
//	Fig. 12b — co-running application memory latency under DPI and L3F
//	           (Sec. 5.3)
//
// plus the headline numbers quoted in the abstract.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"netdimm/internal/driver"
	"netdimm/internal/nic"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
)

// PaperSizes are the packet sizes on the X axis of Fig. 4 and Fig. 11.
var PaperSizes = []int{10, 60, 200, 500, 1000, 2000, 4000, 8000}

// Fig11Sizes are the sizes the paper quotes explicit NetDIMM reductions
// for (Sec. 5.2: 64B, 256B, 1024B).
var Fig11Sizes = []int{64, 256, 1024, 1514, 4000, 8000}

// Fig4Row is one packet size's comparison of the four baseline NIC
// configurations (Fig. 4), with the PCIe share of the two dNIC configs.
type Fig4Row struct {
	Size     int           `csv:"size"`
	DNIC     time.Duration `csv:"dnic_ns"`
	DNICZcpy time.Duration `csv:"dnic_zcpy_ns"`
	INIC     time.Duration `csv:"inic_ns"`
	INICZcpy time.Duration `csv:"inic_zcpy_ns"`
	// PCIeShare and PCIeShareZcpy are pcie.overh for dNIC and dNIC.zcpy.
	PCIeShare     float64 `csv:"pcie_share" fmt:"%.4f"`
	PCIeShareZcpy float64 `csv:"pcie_share_zcpy" fmt:"%.4f"`
}

// Fig4 reproduces the motivation experiment: one-way latency between two
// directly connected nodes for the four baseline configurations, on the
// system described by sp. Each size is an independent cell (fresh machines
// and derived parameters per cell), fanned out over `parallelism` workers.
func Fig4(sp spec.Spec, sizes []int, switchLatency sim.Time, parallelism int) []Fig4Row {
	rows := make([]Fig4Row, len(sizes))
	forEachCell(len(sizes), parallelism, func(i int) {
		d := sp.MustDerive()
		fabric := d.Fabric(switchLatency)
		size := sizes[i]
		p := nic.Packet{Size: size}
		dn := d.NewDNIC(false)
		dz := d.NewDNIC(true)
		in := d.NewINIC(false)
		iz := d.NewINIC(true)

		dnB := driver.OneWay(dn, d.NewDNIC(false), p, fabric)
		dzB := driver.OneWay(dz, d.NewDNIC(true), p, fabric)
		inB := driver.OneWay(in, d.NewINIC(false), p, fabric)
		izB := driver.OneWay(iz, d.NewINIC(true), p, fabric)

		rows[i] = Fig4Row{
			Size:          size,
			DNIC:          dnB.Total().Duration(),
			DNICZcpy:      dzB.Total().Duration(),
			INIC:          inB.Total().Duration(),
			INICZcpy:      izB.Total().Duration(),
			PCIeShare:     dn.PCIeShare(p, dnB.Total()),
			PCIeShareZcpy: dz.PCIeShare(p, dzB.Total()),
		}
	})
	return rows
}

// LatencyBreakdown is a one-way packet latency decomposed into the
// components of the paper's Fig. 11: the named-field form of
// stats.Breakdown.
type LatencyBreakdown struct {
	TxCopy       time.Duration `csv:"txCopy_ns"`
	RxCopy       time.Duration `csv:"rxCopy_ns"`
	TxDMA        time.Duration `csv:"txDMA_ns"`
	RxDMA        time.Duration `csv:"rxDMA_ns"`
	Wire         time.Duration `csv:"wire_ns"`
	IOReg        time.Duration `csv:"ioReg_ns"`
	TxFlush      time.Duration `csv:"txFlush_ns"`
	RxInvalidate time.Duration `csv:"rxInvalidate_ns"`
	Total        time.Duration `csv:"total_ns"`
}

// NewLatencyBreakdown names b's components, truncating each to whole
// nanoseconds.
func NewLatencyBreakdown(b stats.Breakdown) LatencyBreakdown {
	return LatencyBreakdown{
		TxCopy:       b[stats.TxCopy].Duration(),
		RxCopy:       b[stats.RxCopy].Duration(),
		TxDMA:        b[stats.TxDMA].Duration(),
		RxDMA:        b[stats.RxDMA].Duration(),
		Wire:         b[stats.Wire].Duration(),
		IOReg:        b[stats.IOReg].Duration(),
		TxFlush:      b[stats.TxFlush].Duration(),
		RxInvalidate: b[stats.RxInvalidate].Duration(),
		Total:        b.Total().Duration(),
	}
}

// String renders the non-zero components, then the total, named as their
// CSV columns without the _ns suffix.
func (l LatencyBreakdown) String() string {
	var parts []string
	for _, c := range []struct {
		name string
		d    time.Duration
	}{
		{"txCopy", l.TxCopy}, {"rxCopy", l.RxCopy}, {"txDMA", l.TxDMA}, {"rxDMA", l.RxDMA},
		{"wire", l.Wire}, {"ioReg", l.IOReg}, {"txFlush", l.TxFlush}, {"rxInvalidate", l.RxInvalidate},
	} {
		if c.d > 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", c.name, c.d))
		}
	}
	return strings.Join(append(parts, fmt.Sprintf("total=%v", l.Total)), " ")
}

// Fig11Result is one packet size's latency breakdown for the three
// architectures (the three panels of Fig. 11), with NetDIMM's relative
// latency reductions computed from the picosecond totals.
type Fig11Result struct {
	Size            int
	DNIC            LatencyBreakdown
	INIC            LatencyBreakdown
	NetDIMM         LatencyBreakdown
	ReductionVsDNIC float64
	ReductionVsINIC float64
}

// Fig11Row is one (size, architecture) line of the Fig. 11 CSV.
type Fig11Row struct {
	Size int    `csv:"size"`
	Arch string `csv:"arch"`
	LatencyBreakdown
}

// Fig11Rows flattens results into their CSV lines.
func Fig11Rows(results []Fig11Result) []Fig11Row {
	var rows []Fig11Row
	for _, r := range results {
		rows = append(rows, Fig11Row{r.Size, "dNIC", r.DNIC}, Fig11Row{r.Size, "iNIC", r.INIC},
			Fig11Row{r.Size, "NetDIMM", r.NetDIMM})
	}
	return rows
}

// Fig11Observed reproduces the central latency experiment: per-component
// one-way latency for dNIC, iNIC and NetDIMM across packet sizes, on the
// system described by sp. Each size uses fresh machines so bank and cache
// state do not leak across rows; seeds vary per side so TX and RX devices
// differ.
//
// When ospec enables tracing or metrics, every size gets its own cell
// (labelled "fig11/size=<n>") holding per-architecture lifecycle spans
// whose per-component track sums equal the breakdowns (exactly in
// picoseconds, so to the reported nanosecond), plus
// substrate metrics. With a zero ospec the returned observer is nil and the
// run is unchanged — same cells, same event order, same numbers.
func Fig11Observed(sp spec.Spec, sizes []int, switchLatency sim.Time, parallelism int, ospec obs.Spec) ([]Fig11Result, *obs.Observer, error) {
	o := newObserver(ospec, len(sizes), func(i int) string { return fmt.Sprintf("fig11/size=%d", sizes[i]) })
	rows, err := sweep(len(sizes), parallelism, func(i int) (Fig11Result, error) {
		d := sp.MustDerive()
		fabric := d.Fabric(switchLatency)
		size := sizes[i]
		p := nic.Packet{Size: size}
		cell := o.Cell(i)
		ndTX, err := d.NewNetDIMM(uint64(2*i + 1))
		if err != nil {
			return Fig11Result{}, err
		}
		ndRX, err := d.NewNetDIMM(uint64(2*i + 2))
		if err != nil {
			return Fig11Result{}, err
		}
		dn := driver.OneWayObserved(d.NewDNIC(false), d.NewDNIC(false), p, fabric, cell)
		in := driver.OneWayObserved(d.NewINIC(false), d.NewINIC(false), p, fabric, cell)
		nd := driver.OneWayObserved(ndTX, ndRX, p, fabric, cell)
		return Fig11Result{
			Size:            size,
			DNIC:            NewLatencyBreakdown(dn),
			INIC:            NewLatencyBreakdown(in),
			NetDIMM:         NewLatencyBreakdown(nd),
			ReductionVsDNIC: stats.Reduction(dn.Total(), nd.Total()),
			ReductionVsINIC: stats.Reduction(in.Total(), nd.Total()),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, o, nil
}

// AverageReduction computes the mean relative reduction of NetDIMM vs the
// selected baseline over the rows (the paper's "on average 49.9% vs PCIe
// NIC, 25.9% vs integrated NIC").
func AverageReduction(rows []Fig11Result, vsINIC bool) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rows {
		if vsINIC {
			sum += r.ReductionVsINIC
		} else {
			sum += r.ReductionVsDNIC
		}
	}
	return sum / float64(len(rows))
}
