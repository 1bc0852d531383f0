package netdimm

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"time"

	"netdimm/internal/campaign"
	"netdimm/internal/experiments"
	"netdimm/internal/stats"
	"netdimm/internal/workload"
)

// Axes are the inputs an experiment family can consume. A campaign grid
// row and a planned cell carry them, and cmd/netdimm-sim fills the same
// struct from its flags; zero values select the family's defaults.
type Axes = campaign.Axes

// Family is one experiment family of the paper's evaluation, declared once
// in the registry below: its name and help line, the axes it consumes, its
// CSV row type, its row-count rules and its runner. The CLI's verbs,
// -csv output and flag help, and the campaign's schemas and executor, are
// all read from the registry, so a new family is one declaration.
type Family struct {
	Name string
	Help string
	// Axes names the fields of Axes the family consumes.
	Axes []string
	// Observed families run through a Run*Observed entry point: their runs
	// carry an Observation, armed by the Metrics axis (every observed
	// family) and the Trace axis (the families that record trace events).
	Observed bool
	// MinRows is the least number of CSV rows a healthy run produces.
	MinRows int
	// WantRows returns the exact CSV row count for the given axes, or 0
	// when the count depends on family defaults (nil = always 0).
	WantRows func(Axes) int
	// row is the CSV row type: every field tagged `csv:"name"` is one
	// column, in field order (see FamilyRun.CSV).
	row reflect.Type
	run func(cfg Config, seed uint64, ax Axes, parallelism int) (FamilyRun, error)
}

// FamilyRun is the output of one Family.Run.
type FamilyRun struct {
	// Rows is a slice of the family's CSV row type.
	Rows any
	// Extra is what the family reports beside its rows, for the text
	// tables: saturation knees, fault-sweep tails, or the unflattened
	// Fig. 11 and ablation results (nil when there is nothing).
	Extra any
	// Obs is the run's instrumentation (nil unless observed and armed).
	Obs *Observation
}

// families is the registry, in the order the CLI lists them.
var families = []Family{
	{
		Name: "fig4", Help: "one-way latency of dNIC/dNIC.zcpy/iNIC/iNIC.zcpy + PCIe share",
		Axes: []string{"Sizes", "SwitchNs"}, MinRows: 1,
		WantRows: func(ax Axes) int { return lenOr(len(ax.Sizes), len(experiments.PaperSizes)) },
		row:      reflect.TypeFor[Fig4Result](),
		run: func(cfg Config, _ uint64, ax Axes, par int) (FamilyRun, error) {
			rows, err := RunFig4WithConfig(cfg, ax.Sizes, switchLatency(ax), par)
			return FamilyRun{Rows: rows}, err
		},
	},
	{
		Name: "fig5", Help: "iperf bandwidth under MLC memory pressure",
		MinRows: 1, row: reflect.TypeFor[Fig5Result](),
		run: func(cfg Config, _ uint64, _ Axes, par int) (FamilyRun, error) {
			rows, err := RunFig5WithConfig(cfg, nil, par)
			return FamilyRun{Rows: rows}, err
		},
	},
	{
		Name: "fig7", Help: "NIC DMA access locality (six 1514B receptions)",
		MinRows: 1, row: reflect.TypeFor[Fig7Result](),
		run: func(cfg Config, _ uint64, _ Axes, _ int) (FamilyRun, error) {
			rows, err := RunFig7WithConfig(cfg)
			return FamilyRun{Rows: rows}, err
		},
	},
	{
		Name: "fig11", Help: "one-way latency breakdown: dNIC / iNIC / NetDIMM",
		Axes: []string{"Sizes", "SwitchNs", "Metrics", "Trace"}, Observed: true, MinRows: 3,
		WantRows: func(ax Axes) int { return 3 * lenOr(len(ax.Sizes), len(experiments.PaperSizes)) },
		row:      reflect.TypeFor[Fig11Row](),
		run: func(cfg Config, _ uint64, ax Axes, par int) (FamilyRun, error) {
			rows, ob, err := RunFig11Observed(cfg, ax.Sizes, switchLatency(ax), par)
			return FamilyRun{Rows: experiments.Fig11Rows(rows), Extra: rows, Obs: ob}, err
		},
	},
	{
		Name: "fig12a", Help: "cluster trace replay across switch latencies",
		Axes: []string{"Packets"}, MinRows: 3,
		WantRows: func(Axes) int { return len(workload.Clusters) * len(experiments.PaperSwitchLatencies) },
		row:      reflect.TypeFor[Fig12aResult](),
		run: func(cfg Config, seed uint64, ax Axes, par int) (FamilyRun, error) {
			rows, err := RunFig12aWithConfig(cfg, ax.Packets, seed, par)
			return FamilyRun{Rows: rows}, err
		},
	},
	{
		Name: "fig12b", Help: "co-running app memory latency under DPI and L3F",
		MinRows: 1, row: reflect.TypeFor[Fig12bResult](),
		WantRows: func(Axes) int { return 2 * len(workload.Clusters) },
		run: func(cfg Config, _ uint64, _ Axes, par int) (FamilyRun, error) {
			rows, err := RunFig12bWithConfig(cfg, par)
			return FamilyRun{Rows: rows}, err
		},
	},
	{
		Name: "ablation", Help: "design-choice ablations (nPrefetcher, nCache, FPM, allocCache)",
		MinRows: 4, row: reflect.TypeFor[AblationRow](),
		run: func(cfg Config, _ uint64, _ Axes, par int) (FamilyRun, error) {
			rep, err := RunAblationsWithConfig(cfg, par)
			return FamilyRun{Rows: rep.Rows(), Extra: rep}, err
		},
	},
	{
		Name: "faultsweep", Help: "one-way latency vs injected frame loss, with retransmit recovery",
		Axes: []string{"Packets", "Rates", "Metrics", "Trace"}, Observed: true, MinRows: 3,
		WantRows: func(ax Axes) int { return 3 * lenOr(len(ax.Rates), len(defaultLossRates)) },
		row:      reflect.TypeFor[FaultSweepResult](),
		run: func(cfg Config, seed uint64, ax Axes, par int) (FamilyRun, error) {
			rows, tails, ob, err := RunFaultSweepObserved(cfg, ax.Rates, ax.Packets, seed, par)
			return FamilyRun{Rows: rows, Extra: tails, Obs: ob}, err
		},
	},
	{
		Name: "loadsweep", Help: "rack-scale incast: latency vs offered load, with saturation knees",
		Axes: []string{"Packets", "Rates", "Hosts", "Shards", "Metrics", "Trace"}, Observed: true, MinRows: 3,
		WantRows: func(ax Axes) int { return 3 * len(ax.Rates) },
		row:      reflect.TypeFor[LoadSweepResult](),
		run: func(cfg Config, seed uint64, ax Axes, par int) (FamilyRun, error) {
			rows, knees, ob, err := RunLoadSweepObserved(cfg, ax.Rates, ax.Packets, seed, par)
			return FamilyRun{Rows: rows, Extra: knees, Obs: ob}, err
		},
	},
	{
		Name: "racksweep", Help: "leaf/spine clos: latency vs load across rack counts, ECN on/off",
		Axes: []string{"Packets", "Rates", "Racks", "Hosts", "Shards", "Metrics"}, Observed: true, MinRows: 6,
		WantRows: func(ax Axes) int { return 3 * 2 * len(ax.Racks) * len(ax.Rates) },
		row:      reflect.TypeFor[RackSweepResult](),
		run: func(cfg Config, seed uint64, ax Axes, par int) (FamilyRun, error) {
			rows, knees, ob, err := RunRackSweepObserved(cfg, ax.Racks, ax.Rates, ax.Packets, seed, par)
			return FamilyRun{Rows: rows, Extra: knees, Obs: ob}, err
		},
	},
	{
		Name: "failsweep", Help: "scheduled spine outage: ECMP failover, ARQ recovery time, tail inflation",
		Axes: []string{"Packets", "Outages", "Hosts", "Shards", "Metrics"}, Observed: true, MinRows: 3,
		WantRows: func(ax Axes) int { return 3 * lenOr(len(ax.Outages), len(experiments.DefaultOutageGrid)) },
		row:      reflect.TypeFor[FailSweepResult](),
		run: func(cfg Config, seed uint64, ax Axes, par int) (FamilyRun, error) {
			outages, err := ax.OutageDurations()
			if err != nil {
				return FamilyRun{}, err
			}
			rows, ob, err := RunFailSweepObserved(cfg, outages, ax.Packets, seed, par)
			return FamilyRun{Rows: rows, Obs: ob}, err
		},
	},
	{
		Name: "collsweep", Help: "collective completion: Ring AllReduce / tree Broadcast / Reduce-Scatter vs rank count",
		Axes: []string{"Ranks", "Ops", "Payload", "Shards", "Metrics", "Trace"}, Observed: true, MinRows: 3,
		WantRows: func(ax Axes) int { return 3 * len(ax.Ranks) * len(ax.Ops) },
		row:      reflect.TypeFor[CollSweepResult](),
		run: func(cfg Config, seed uint64, ax Axes, par int) (FamilyRun, error) {
			rows, ob, err := RunCollSweepObserved(cfg, ax.Ranks, ax.Ops, seed, par)
			return FamilyRun{Rows: rows, Obs: ob}, err
		},
	},
}

// LookupFamily returns the named family.
func LookupFamily(name string) (Family, bool) {
	i := slices.IndexFunc(families, func(f Family) bool { return f.Name == name })
	if i < 0 {
		return Family{}, false
	}
	return families[i], true
}

// Schema is the family's campaign contract: accepted axes, CSV header and
// row-count rules.
func (f Family) Schema() campaign.Schema {
	var header []string
	for _, c := range csvColumns(f.row) {
		header = append(header, c.name)
	}
	return campaign.Schema{Axes: f.Axes, Header: header, MinRows: f.MinRows, WantRows: f.WantRows}
}

// Run executes the family with the given axes on cfg. parallelism follows
// the convention of every Run* sweep: <= 0 uses all cores
// (runtime.GOMAXPROCS), 1 runs sequentially, N uses at most N workers, and
// results are identical for every setting. An axis the family does not
// consume is an error, as in a campaign grid; Hosts, Shards and Payload
// override cfg's Load.Hosts, Load.Shards and Collective.PayloadBytes, and
// Metrics and Trace arm cfg.Obs.
func (f Family) Run(cfg Config, seed uint64, ax Axes, parallelism int) (FamilyRun, error) {
	if err := f.Schema().Check(f.Name, ax); err != nil {
		return FamilyRun{}, err
	}
	return f.run(withAxes(cfg, ax), seed, ax, parallelism)
}

// withAxes applies the axes that override configuration fields.
func withAxes(cfg Config, ax Axes) Config {
	if ax.Hosts > 0 {
		cfg.Load.Hosts = ax.Hosts
	}
	if ax.Shards > 0 {
		cfg.Load.Shards = ax.Shards
	}
	if ax.Payload > 0 {
		cfg.Collective.PayloadBytes = ax.Payload
	}
	cfg.Obs.Metrics = cfg.Obs.Metrics || ax.Metrics
	cfg.Obs.Trace = cfg.Obs.Trace || ax.Trace
	return cfg
}

// switchLatency is the SwitchNs axis, defaulting to 100ns.
func switchLatency(ax Axes) time.Duration {
	if ax.SwitchNs > 0 {
		return time.Duration(ax.SwitchNs) * time.Nanosecond
	}
	return 100 * time.Nanosecond
}

// lenOr returns n, or the family default when the axis was left empty.
func lenOr(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

// CSV renders Rows as a CSV document. Each field of the row type tagged
// `csv:"name"` is one column, in field order; an untagged struct field is
// flattened in place and other untagged fields are skipped. A
// time.Duration is written in nanoseconds, a bool as on/off, and a
// float64 (or *float64, empty when nil) with the format in the field's
// `fmt` tag, %g by default.
func (r FamilyRun) CSV() string {
	v := reflect.ValueOf(r.Rows)
	cols := csvColumns(v.Type().Elem())
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.name
	}
	records := make([][]string, v.Len())
	for i := range records {
		rec := make([]string, len(cols))
		for j, c := range cols {
			rec[j] = c.encode(v.Index(i).FieldByIndex(c.index))
		}
		records[i] = rec
	}
	return stats.CSV(header, records)
}

// csvColumn is one column of a tagged row type.
type csvColumn struct {
	name, format string
	index        []int
}

func csvColumns(t reflect.Type) []csvColumn {
	var cols []csvColumn
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if name, ok := f.Tag.Lookup("csv"); ok {
			format := f.Tag.Get("fmt")
			if format == "" {
				format = "%g"
			}
			cols = append(cols, csvColumn{name, format, f.Index})
		} else if f.Type.Kind() == reflect.Struct {
			for _, c := range csvColumns(f.Type) {
				c.index = append([]int{i}, c.index...)
				cols = append(cols, c)
			}
		}
	}
	return cols
}

func (c csvColumn) encode(v reflect.Value) string {
	switch x := v.Interface().(type) {
	case time.Duration:
		return strconv.FormatInt(x.Nanoseconds(), 10)
	case bool:
		if x {
			return "on"
		}
		return "off"
	case float64:
		return fmt.Sprintf(c.format, x)
	case *float64:
		if x == nil {
			return ""
		}
		return fmt.Sprintf(c.format, *x)
	}
	return fmt.Sprint(v.Interface())
}
