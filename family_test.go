package netdimm

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
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
