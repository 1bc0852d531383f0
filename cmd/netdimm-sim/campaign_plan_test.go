package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"netdimm"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// plannedCell is the golden-pinned slice of a planned cell: the identity
// and seed, not the axes (those live in the grid file itself).
type plannedCell struct {
	Name       string `json:"name"`
	Experiment string `json:"experiment"`
	Scenario   string `json:"scenario,omitempty"`
	Repeat     int    `json:"repeat"`
	Seed       uint64 `json:"seed"`
}

// TestCampaignDefaultPlanGolden pins the plan of the checked-in default
// grid: cell list and derived seeds. The seed-derivation formula is part of
// the reproducibility contract — a change here invalidates every published
// campaign manifest, so it must be deliberate (regenerate with -update).
func TestCampaignDefaultPlanGolden(t *testing.T) {
	grid, err := netdimm.LoadCampaignGrid(filepath.Join("..", "..", "scenarios", "campaign-default.json"))
	if err != nil {
		t.Fatal(err)
	}
	var plan []plannedCell
	for _, c := range grid.Plan() {
		plan = append(plan, plannedCell{
			Name: c.Name, Experiment: c.Experiment, Scenario: c.Scenario,
			Repeat: c.Repeat, Seed: c.Seed,
		})
	}
	got, err := json.MarshalIndent(plan, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "golden", "campaign-default-plan.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("default campaign plan drifted from golden %s (regenerate with -update if deliberate)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}
