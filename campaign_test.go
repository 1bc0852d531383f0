package netdimm

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netdimm/internal/campaign"
)

// tinyGrid exercises a fast cross-section of the executor bindings: one
// breakdown family, one trace-replay family and one fault family.
func tinyGrid() campaign.Grid {
	return campaign.Grid{
		Name: "tiny",
		Seed: 3,
		Experiments: []campaign.Experiment{
			{Experiment: "fig4", Axes: Axes{Sizes: []int{64, 1514}}},
			{Experiment: "fig11", Axes: Axes{Sizes: []int{64}, Metrics: true}},
			{Experiment: "faultsweep", Axes: Axes{Packets: 40, Rates: []float64{0, 0.01}, Trace: true}},
		},
	}
}

func TestRunCampaignEndToEnd(t *testing.T) {
	grid := tinyGrid()
	rep, err := RunCampaign(grid, "", t.TempDir(), nil)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if rep.Failed != 0 || len(rep.Manifest.Cells) != 3 {
		t.Fatalf("report: failed=%d cells=%d", rep.Failed, len(rep.Manifest.Cells))
	}
	// Every cell validated with the exact expected row count.
	wantRows := map[string]int{
		"fig4-table1-r0":       2, // two sizes
		"fig11-table1-r0":      3, // one size x three architectures
		"faultsweep-table1-r0": 6, // two rates x three architectures
	}
	for _, c := range rep.Manifest.Cells {
		if c.Status != "ok" {
			t.Errorf("cell %s: %s", c.Name, c.Status)
		}
		if want := wantRows[c.Name]; c.Rows != want {
			t.Errorf("cell %s rows = %d, want %d", c.Name, c.Rows, want)
		}
		if c.ConfigHash == "" {
			t.Errorf("cell %s missing config hash", c.Name)
		}
		data, err := os.ReadFile(filepath.Join(rep.Dir, c.CSV))
		if err != nil {
			t.Errorf("cell %s CSV: %v", c.Name, err)
			continue
		}
		if _, err := campaign.ValidateCSV(string(data), CampaignSchemas()[c.Experiment], c.Rows); err != nil {
			t.Errorf("cell %s on-disk CSV fails validation: %v", c.Name, err)
		}
	}
	// The metrics-armed fig11 cell produced a registry CSV; the others did not.
	for _, c := range rep.Manifest.Cells {
		hasMetrics := c.MetricsCSV != ""
		if want := c.Experiment == "fig11"; hasMetrics != want {
			t.Errorf("cell %s metrics_csv=%q, want present=%v", c.Name, c.MetricsCSV, want)
		}
	}
	// The trace-armed faultsweep cell wrote non-empty trace-event JSON.
	for _, c := range rep.Manifest.Cells {
		hasTrace := c.Trace != ""
		if want := c.Experiment == "faultsweep"; hasTrace != want {
			t.Errorf("cell %s trace=%q, want present=%v", c.Name, c.Trace, want)
			continue
		}
		if !hasTrace {
			continue
		}
		data, err := os.ReadFile(filepath.Join(rep.Dir, c.Trace))
		if err != nil {
			t.Errorf("cell %s trace: %v", c.Name, err)
			continue
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Errorf("cell %s trace is not valid JSON: %v", c.Name, err)
		} else if len(doc.TraceEvents) == 0 {
			t.Errorf("cell %s trace has no events", c.Name)
		}
	}
	var man campaign.Manifest
	data, err := os.ReadFile(filepath.Join(rep.Dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Campaign != "tiny" || man.CreatedUTC == "" || man.Host.GoVersion == "" {
		t.Fatalf("manifest: %+v", man)
	}
}

// TestRunCampaignDeterministic is the acceptance criterion: re-running the
// same grid with the same seeds yields byte-identical csv/ and metrics/
// trees, at different parallelism levels.
func TestRunCampaignDeterministic(t *testing.T) {
	run := func(parallelism int) string {
		g := tinyGrid()
		g.Parallelism = parallelism
		rep, err := RunCampaign(g, "", t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Dir
	}
	a, b := run(1), run(2)
	for _, sub := range []string{"csv", "metrics", "trace"} {
		ents, err := os.ReadDir(filepath.Join(a, sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			t.Fatalf("no files under %s", sub)
		}
		for _, e := range ents {
			da, err := os.ReadFile(filepath.Join(a, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			db, err := os.ReadFile(filepath.Join(b, sub, e.Name()))
			if err != nil {
				t.Fatalf("second run missing %s/%s: %v", sub, e.Name(), err)
			}
			if string(da) != string(db) {
				t.Errorf("%s/%s not byte-identical across runs", sub, e.Name())
			}
		}
	}
}

func TestRunCampaignRejectsInvalidGrid(t *testing.T) {
	_, err := RunCampaign(campaign.Grid{}, "", t.TempDir(), nil)
	if err == nil || !strings.Contains(err.Error(), "no experiments") {
		t.Fatalf("want validation error, got %v", err)
	}
}

func TestLoadCampaignGridDefault(t *testing.T) {
	g, err := LoadCampaignGrid("scenarios/campaign-default.json")
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "campaign-default" || len(g.Experiments) != 9 {
		t.Fatalf("default grid: name=%q rows=%d", g.Name, len(g.Experiments))
	}
	// Every registered family appears exactly once, except the three
	// axis-free figures the default grid predates (adding them would
	// change the pinned plan golden).
	notInDefault := map[string]bool{"fig5": true, "fig7": true, "fig12b": true}
	seen := map[string]int{}
	for _, e := range g.Experiments {
		seen[e.Experiment]++
	}
	for fam := range CampaignSchemas() {
		want := 1
		if notInDefault[fam] {
			want = 0
		}
		if seen[fam] != want {
			t.Errorf("family %s appears %d times in the default grid, want %d", fam, seen[fam], want)
		}
	}
}

// TestCampaignRejectsUnconsumedAxes pins that a grid row may set only the
// axes its family declares: a dead axis is a validation error naming the
// row, the axis and what the family accepts, never a silent default.
func TestCampaignRejectsUnconsumedAxes(t *testing.T) {
	cases := []struct {
		name string
		row  string
		want string // substring of the error, "" = valid
	}{
		{"fig4 extras", `{"Experiment":"fig4","Sizes":[64],"Racks":[2],"Ranks":[4],"Hosts":8,"Metrics":true}`,
			"experiments[0] (fig4): fig4 does not consume Racks, Hosts, Ranks, Metrics (it accepts Sizes, SwitchNs)"},
		{"loadsweep extras", `{"Experiment":"loadsweep","Outages":["10us"],"SwitchNs":50}`,
			"loadsweep does not consume SwitchNs, Outages (it accepts Packets, Rates, Hosts, Shards, Metrics, Trace)"},
		{"axis-free family", `{"Experiment":"ablation","Packets":10}`,
			"ablation does not consume Packets (it accepts no axes)"},
		{"collsweep hosts", `{"Experiment":"collsweep","Hosts":4}`, "collsweep does not consume Hosts"},
		{"fig11 trace ok", `{"Experiment":"fig11","Sizes":[64],"SwitchNs":50,"Trace":true,"Metrics":true}`, ""},
		{"failsweep ok", `{"Experiment":"failsweep","Packets":10,"Outages":["0"],"Hosts":8,"Shards":2}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := campaign.ReadGrid(strings.NewReader(`{"Experiments":[` + tc.row + `]}`))
			if err != nil {
				t.Fatal(err)
			}
			err = g.Validate(CampaignSchemas())
			if tc.want == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}
