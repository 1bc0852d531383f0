package netdimm

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"netdimm/internal/fault"
)

// livenessCells gives every registry family a tiny base cell and, for each
// axis the family declares, one variant that changes only that axis.
var livenessCells = map[string]struct {
	base     Axes
	variants map[string]Axes
}{
	"fig4": {Axes{Sizes: []int{64}}, map[string]Axes{
		"Sizes":    {Sizes: []int{1514}},
		"SwitchNs": {Sizes: []int{64}, SwitchNs: 500},
	}},
	"fig5":     {},
	"fig7":     {},
	"fig12b":   {},
	"ablation": {},
	"fig11": {Axes{Sizes: []int{64}}, map[string]Axes{
		"Sizes":    {Sizes: []int{1514}},
		"SwitchNs": {Sizes: []int{64}, SwitchNs: 500},
	}},
	"fig12a": {Axes{Packets: 30}, map[string]Axes{
		"Packets": {Packets: 60},
	}},
	"faultsweep": {Axes{Packets: 30, Rates: []float64{0}}, map[string]Axes{
		"Packets": {Packets: 60, Rates: []float64{0}},
		"Rates":   {Packets: 30, Rates: []float64{0.2}},
	}},
	"loadsweep": {Axes{Packets: 60, Rates: []float64{0.1}, Hosts: 2}, map[string]Axes{
		"Packets": {Packets: 120, Rates: []float64{0.1}, Hosts: 2},
		"Rates":   {Packets: 60, Rates: []float64{0.4}, Hosts: 2},
		"Hosts":   {Packets: 60, Rates: []float64{0.1}, Hosts: 4},
		"Shards":  {Packets: 60, Rates: []float64{0.1}, Hosts: 2, Shards: 2},
	}},
	"racksweep": {Axes{Packets: 60, Rates: []float64{0.1}, Racks: []int{2}, Hosts: 8}, map[string]Axes{
		"Packets": {Packets: 120, Rates: []float64{0.1}, Racks: []int{2}, Hosts: 8},
		"Rates":   {Packets: 60, Rates: []float64{0.6}, Racks: []int{2}, Hosts: 8},
		"Racks":   {Packets: 60, Rates: []float64{0.1}, Racks: []int{4}, Hosts: 8},
		"Hosts":   {Packets: 60, Rates: []float64{0.1}, Racks: []int{2}, Hosts: 16},
		"Shards":  {Packets: 60, Rates: []float64{0.1}, Racks: []int{2}, Hosts: 8, Shards: 2},
	}},
	"failsweep": {Axes{Packets: 60, Outages: []string{"0"}, Hosts: 8}, map[string]Axes{
		"Packets": {Packets: 120, Outages: []string{"0"}, Hosts: 8},
		"Outages": {Packets: 60, Outages: []string{"20us"}, Hosts: 8},
		"Hosts":   {Packets: 60, Outages: []string{"0"}, Hosts: 16},
		"Shards":  {Packets: 60, Outages: []string{"0"}, Hosts: 8, Shards: 2},
	}},
	"collsweep": {Axes{Ranks: []int{4}, Ops: []string{"allreduce"}, Payload: 4096}, map[string]Axes{
		"Ranks":   {Ranks: []int{8}, Ops: []string{"allreduce"}, Payload: 4096},
		"Ops":     {Ranks: []int{4}, Ops: []string{"broadcast"}, Payload: 4096},
		"Payload": {Ranks: []int{4}, Ops: []string{"allreduce"}, Payload: 8192},
		"Shards":  {Ranks: []int{4}, Ops: []string{"allreduce"}, Payload: 4096, Shards: 2},
	}},
}

// TestFamilyAxesAreLive runs, for every family and every axis it declares,
// a tiny cell with that axis moved off the base value, and requires the
// CSV to change: an axis that is accepted but ignored fails here. Shards
// is the one axis whose CSV must not change (results are identical at any
// shard count), so it must reach the resolved Config instead. Metrics must
// fill the registry and Trace must record trace events.
func TestFamilyAxesAreLive(t *testing.T) {
	run := func(t *testing.T, f Family, ax Axes) FamilyRun {
		t.Helper()
		out, err := f.Run(DefaultConfig(), 3, ax, 0)
		if err != nil {
			t.Fatalf("%s %+v: %v", f.Name, ax, err)
		}
		return out
	}
	for _, f := range families {
		t.Run(f.Name, func(t *testing.T) {
			cells, ok := livenessCells[f.Name]
			if !ok {
				t.Fatalf("no liveness cells for family %s", f.Name)
			}
			covered := []string{}
			for axis := range cells.variants {
				covered = append(covered, axis)
			}
			for _, axis := range []string{"Metrics", "Trace"} {
				if slices.Contains(f.Axes, axis) {
					covered = append(covered, axis)
				}
			}
			if len(covered) != len(f.Axes) || !containsAll(f.Axes, covered) {
				t.Fatalf("liveness cells cover %v, family declares %v", covered, f.Axes)
			}
			if len(f.Axes) == 0 {
				return // nothing to perturb
			}
			base := run(t, f, cells.base)
			header := strings.Join(f.Schema().Header, ",") + "\n"
			if !strings.HasPrefix(base.CSV(), header) {
				t.Fatalf("CSV header is not the schema header %q:\n%s", header, base.CSV())
			}
			for axis, ax := range cells.variants {
				got := run(t, f, ax).CSV()
				if axis == "Shards" {
					if got != base.CSV() {
						t.Errorf("Shards changed the CSV:\n%s\nvs\n%s", got, base.CSV())
					}
					if withAxes(DefaultConfig(), ax).Load.Shards != ax.Shards {
						t.Errorf("Shards did not reach the resolved Config")
					}
					continue
				}
				if got == base.CSV() {
					t.Errorf("axis %s is dead: CSV unchanged at %+v", axis, ax)
				}
			}
			if slices.Contains(f.Axes, "Metrics") {
				ax := cells.base
				ax.Metrics = true
				out := run(t, f, ax)
				if out.Obs.MetricsCSV() == "" {
					t.Error("Metrics produced no registry")
				}
				if out.CSV() != base.CSV() {
					t.Error("arming Metrics changed the CSV")
				}
			}
			if slices.Contains(f.Axes, "Trace") {
				ax := cells.base
				ax.Metrics, ax.Trace = true, true
				if n := traceEvents(t, run(t, f, ax)); n == 0 {
					t.Error("Trace recorded no events beyond track names")
				}
			}
		})
	}
}

// traceEvents counts the spans and counter samples in a run's trace,
// leaving out the metadata events that only name tracks.
func traceEvents(t *testing.T, out FamilyRun) int {
	t.Helper()
	var buf strings.Builder
	if err := out.Obs.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Ph string } `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			n++
		}
	}
	return n
}

func containsAll(set, items []string) bool {
	for _, it := range items {
		if !slices.Contains(set, it) {
			return false
		}
	}
	return true
}

// specProbe is one entry of specLiveness: a perturbation of one Config
// leaf and the family whose tiny cell it must move. ctx, when set, first
// arms the context the field acts in (a retry knob needs loss to retry
// on) and is applied to both runs; ax, when set, replaces the family's
// base liveness cell. A probe with no family instead runs every family in
// same and requires its CSV to stay byte-identical, or, if rejected is
// set, requires Validate to refuse the perturbation.
type specProbe struct {
	family   string
	same     []string
	rejected bool
	ax       *Axes
	ctx      func(*Config)
	set      func(*Config)
}

// specLiveness has one probe per leaf field of Config, nested blocks
// included (keyed by dotted path); TestSpecFieldsAreLive fails on a leaf
// without a probe, so a new knob must show what it moves.
var specLiveness = map[string]specProbe{
	"CoreGHz":      {family: "fig4", set: func(c *Config) { c.CoreGHz = 2 }},
	"SuperscalarW": {family: "fig4", set: func(c *Config) { c.SuperscalarW = 6 }},
	"ROBEntries":   {family: "fig4", set: func(c *Config) { c.ROBEntries = 8 }},
	"L1DLatCycles": {family: "fig4", set: func(c *Config) { c.L1DLatCycles = 5 }},
	"L2LatCycles":  {family: "fig4", set: func(c *Config) { c.L2LatCycles = 30 }},
	"DRAM":         {family: "fig11", set: func(c *Config) { c.DRAM = "DDR5-4800" }},
	"NetworkGbps":  {family: "fig4", set: func(c *Config) { c.NetworkGbps = 100 }},
	"SwitchLatNs":  {family: "loadsweep", set: func(c *Config) { c.SwitchLatNs = 500 }},
	"PCIe":         {family: "fig4", set: func(c *Config) { c.PCIe = "x8 PCIe Gen3" }},

	// The faultsweep loss axis owns DropProb; no experiment reads it from
	// the scenario.
	"Fault.DropProb":     {rejected: true, set: func(c *Config) { c.Fault.DropProb = 0.3 }},
	"Fault.CorruptProb":  {family: "faultsweep", set: func(c *Config) { c.Fault.CorruptProb = 0.3 }},
	"Fault.PortDropProb": {family: "loadsweep", set: func(c *Config) { c.Fault.PortDropProb = 0.3 }},
	"Fault.MaxRetries": {family: "faultsweep", ctx: lossy,
		set: func(c *Config) { c.Fault.MaxRetries = 1 }},
	"Fault.RetryBaseNs": {family: "faultsweep", ctx: lossy,
		set: func(c *Config) { c.Fault.RetryBaseNs = 5000 }},
	"Fault.RetryCapNs": {family: "faultsweep", ctx: lossy,
		set: func(c *Config) { c.Fault.RetryCapNs = 1000 }},
	"Fault.MemTimeoutProb": {family: "faultsweep",
		set: func(c *Config) { c.Fault.MemTimeoutProb = 0.3 }},
	"Fault.MemTimeoutNs": {family: "faultsweep", ctx: memLossy,
		set: func(c *Config) { c.Fault.MemTimeoutNs = 9000 }},
	"Fault.MemMaxRetries": {family: "faultsweep", ctx: memLossy,
		set: func(c *Config) { c.Fault.MemMaxRetries = 1 }},
	"Fault.Failure.Outages": {family: "loadsweep", set: func(c *Config) {
		c.Fault.Failure.Outages = []fault.Outage{{Kind: fault.OutageLink, Index: 0, StartNs: 0, EndNs: 50000}}
	}},
	"Fault.Failure.Burst.GoodLossProb": {family: "loadsweep",
		set: func(c *Config) { c.Fault.Failure.Burst.GoodLossProb = 0.3 }},
	"Fault.Failure.Burst.BadLossProb": {family: "loadsweep", ctx: burst,
		set: func(c *Config) { c.Fault.Failure.Burst.BadLossProb = 0.9 }},
	"Fault.Failure.Burst.GoodToBad": {family: "loadsweep", ctx: burst,
		set: func(c *Config) { c.Fault.Failure.Burst.GoodToBad = 0.5 }},
	"Fault.Failure.Burst.BadToGood": {family: "loadsweep", ctx: burst,
		set: func(c *Config) { c.Fault.Failure.Burst.BadToGood = 0.01 }},
	"Fault.Failure.Seed": {family: "loadsweep", ctx: burst,
		set: func(c *Config) { c.Fault.Failure.Seed = 7 }},
	"Fault.Seed": {family: "faultsweep", ctx: lossy,
		set: func(c *Config) { c.Fault.Seed = 7 }},

	"Obs.Trace": {same: []string{"fig11", "faultsweep", "loadsweep", "collsweep"},
		set: func(c *Config) { c.Obs.Trace = true }},
	"Obs.Metrics": {same: []string{"fig11", "faultsweep", "loadsweep", "racksweep", "failsweep", "collsweep"},
		set: func(c *Config) { c.Obs.Metrics = true }},

	// The Hosts axis overrides Load.Hosts, so the probe leaves it unset.
	"Load.Hosts": {family: "loadsweep", ax: &Axes{Packets: 60, Rates: []float64{0.1}},
		set: func(c *Config) { c.Load.Hosts = 4 }},
	"Load.Cluster": {family: "loadsweep", set: func(c *Config) { c.Load.Cluster = "hadoop" }},
	"Load.Process": {family: "loadsweep", set: func(c *Config) { c.Load.Process = "fixed" }},
	"Load.PortBuffer": {family: "loadsweep", ax: &Axes{Packets: 200, Rates: []float64{0.9}, Hosts: 8},
		set: func(c *Config) { c.Load.PortBuffer = 2 }},
	"Load.KneeFactor": {family: "loadsweep", ax: &Axes{Packets: 200, Rates: []float64{0.1, 0.9}, Hosts: 8},
		set: func(c *Config) { c.Load.KneeFactor = 100 }},
	"Load.Shards": {same: []string{"loadsweep", "racksweep", "failsweep", "collsweep"},
		set: func(c *Config) { c.Load.Shards = 2 }},

	"Fabric.Leaves":       {family: "loadsweep", set: func(c *Config) { c.Fabric.Leaves = 2 }},
	"Fabric.Spines":       {family: "failsweep", set: func(c *Config) { c.Fabric.Spines = 3 }},
	"Fabric.ECNThreshold": {family: "racksweep", set: func(c *Config) { c.Fabric.ECNThreshold = 1 }},
	"Fabric.ECNBackoffNs": {family: "racksweep", ctx: func(c *Config) { c.Fabric.ECNThreshold = 1 },
		set: func(c *Config) { c.Fabric.ECNBackoffNs = 5000 }},
	"Fabric.Seed": {family: "racksweep", set: func(c *Config) { c.Fabric.Seed = 7 }},

	// The collsweep axes override the block's pins, so each probe leaves
	// its own axis unset.
	"Collective.Op": {family: "collsweep", ax: &Axes{Ranks: []int{4}, Payload: 4096},
		set: func(c *Config) { c.Collective.Op = "broadcast" }},
	"Collective.Ranks": {family: "collsweep", ax: &Axes{Ops: []string{"allreduce"}, Payload: 4096},
		set: func(c *Config) { c.Collective.Ranks = 8 }},
	"Collective.PayloadBytes": {family: "collsweep", ax: &Axes{Ranks: []int{4}, Ops: []string{"allreduce"}},
		set: func(c *Config) { c.Collective.PayloadBytes = 8192 }},
	"Collective.ChunkBytes": {family: "collsweep",
		set: func(c *Config) { c.Collective.ChunkBytes = 512 }},
}

// Contexts some probes need before their field can act.
func lossy(c *Config)    { c.Fault.CorruptProb = 0.3 }
func memLossy(c *Config) { c.Fault.MemTimeoutProb = 0.3 }
func burst(c *Config) {
	c.Fault.Failure.Burst = fault.Burst{BadLossProb: 0.5, GoodToBad: 0.1, BadToGood: 0.5}
}

// TestSpecFieldsAreLive proves every Config field is a live knob: each
// leaf, perturbed alone, must change its family's tiny-cell result. Obs.*
// and Load.Shards are the exceptions whose contract is the reverse
// (observing or sharding a run never changes its CSV), and Fault.DropProb
// must be refused by Validate. A field with no probe, a probe naming no
// field, or a probe that moves another field fails here.
func TestSpecFieldsAreLive(t *testing.T) {
	leaves := specLeaves(reflect.TypeFor[Config](), "")
	for _, path := range leaves {
		if _, ok := specLiveness[path]; !ok {
			t.Errorf("Config.%s has no liveness probe", path)
		}
	}
	for path := range specLiveness {
		if !slices.Contains(leaves, path) {
			t.Errorf("liveness probe %s names no Config field", path)
		}
	}
	// result is a run's CSV, plus for a live probe what the family reports
	// beside its rows (a knee moves only there).
	result := func(t *testing.T, family string, ax *Axes, cfg Config, extra bool) string {
		t.Helper()
		f, ok := LookupFamily(family)
		if !ok {
			t.Fatalf("unknown family %s", family)
		}
		cell := livenessCells[family].base
		if ax != nil {
			cell = *ax
		}
		out, err := f.Run(cfg, 3, cell, 0)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if extra {
			return out.CSV() + fmt.Sprint(out.Extra)
		}
		return out.CSV()
	}
	for _, path := range leaves {
		p, ok := specLiveness[path]
		if !ok {
			continue
		}
		t.Run(path, func(t *testing.T) {
			base := DefaultConfig()
			if p.ctx != nil {
				p.ctx(&base)
			}
			moved := base
			p.set(&moved)
			// The probe must move its own field and nothing else.
			restored := moved
			field(&restored, path).Set(field(&base, path))
			if reflect.DeepEqual(moved, base) || !reflect.DeepEqual(restored, base) {
				t.Fatalf("probe does not perturb exactly Config.%s", path)
			}
			if err := moved.Validate(); (err != nil) != p.rejected {
				t.Fatalf("Validate = %v, want rejected=%v", err, p.rejected)
			}
			if p.rejected {
				return
			}
			if p.family == "" {
				for _, fam := range p.same {
					if result(t, fam, nil, moved, false) != result(t, fam, nil, base, false) {
						t.Errorf("%s changed the %s CSV", path, fam)
					}
				}
				return
			}
			want := result(t, p.family, p.ax, base, true)
			if again := result(t, p.family, p.ax, base, true); again != want {
				t.Fatalf("the %s cell is not deterministic:\n%s\nvs\n%s", p.family, again, want)
			}
			if result(t, p.family, p.ax, moved, true) == want {
				t.Errorf("%s is dead: the %s result is unchanged", path, p.family)
			}
		})
	}
}

// specLeaves lists the dotted paths of every non-struct field of t,
// recursing into struct-typed fields.
func specLeaves(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Type.Kind() == reflect.Struct {
			out = append(out, specLeaves(sf.Type, prefix+sf.Name+".")...)
		} else {
			out = append(out, prefix+sf.Name)
		}
	}
	return out
}

// field returns the settable field of cfg at a dotted path.
func field(cfg *Config, path string) reflect.Value {
	v := reflect.ValueOf(cfg).Elem()
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	return v
}
