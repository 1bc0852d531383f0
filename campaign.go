package netdimm

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"netdimm/internal/campaign"
)

// CampaignSchemas is the contract registry of every experiment family a
// campaign grid can name, read from the family registry: the axes a row
// may set, the exact header each family emits and its row-count rules.
// The campaign runner validates every grid against it before running and
// every cell CSV after.
func CampaignSchemas() map[string]campaign.Schema {
	out := make(map[string]campaign.Schema, len(families))
	for _, f := range families {
		out[f.Name] = f.Schema()
	}
	return out
}

// LoadCampaignGrid reads and validates a campaign grid file against the
// family registry.
func LoadCampaignGrid(path string) (campaign.Grid, error) {
	g, err := campaign.LoadGrid(path)
	if err != nil {
		return campaign.Grid{}, err
	}
	if err := g.Validate(CampaignSchemas()); err != nil {
		return campaign.Grid{}, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// RunCampaign executes a validated campaign grid to completion: every cell
// runs through its family's registry entry, the produced CSVs are
// schema-validated, and a timestamped directory (per-cell CSVs, optional
// metrics CSVs, manifest with host/git/seed/config-hash, run log, grouped
// summary tables) is written under outRoot. gridPath, when non-empty, is
// fingerprinted into the manifest; logw mirrors the run log (nil discards
// it). Cell failures are collected, not fatal mid-run: the report is
// always written, and the returned error summarizes any failures.
func RunCampaign(grid campaign.Grid, gridPath, outRoot string, logw io.Writer) (*campaign.RunReport, error) {
	if err := grid.Validate(CampaignSchemas()); err != nil {
		return nil, err
	}
	r := &campaign.Runner{
		Grid:        grid,
		OutRoot:     outRoot,
		Schemas:     CampaignSchemas(),
		Exec:        runCampaignCell,
		GitRevision: campaign.GitRevision("."),
		GridPath:    gridPath,
		Log:         logw,
	}
	return r.Run()
}

// runCampaignCell executes one planned campaign cell through its family's
// registry entry. The inner experiment always runs sequentially
// (parallelism 1): the campaign fans out across cells, and nesting pools
// would oversubscribe without changing any result.
func runCampaignCell(c campaign.Cell) (campaign.Result, error) {
	fam, ok := LookupFamily(c.Experiment)
	if !ok {
		return campaign.Result{}, fmt.Errorf("unknown experiment family %q", c.Experiment)
	}
	cfg, err := LoadScenario(c.Scenario)
	if err != nil {
		return campaign.Result{}, err
	}
	res := campaign.Result{ConfigHash: configHash(withAxes(cfg, c.Axes))}
	out, err := fam.Run(cfg, c.Seed, c.Axes, 1)
	if err != nil {
		return res, err
	}
	res.CSV = out.CSV()
	res.MetricsCSV = out.Obs.MetricsCSV()
	res.TraceJSON = captureTrace(out.Obs, c.Trace)
	return res, nil
}

// configHash fingerprints a resolved configuration for the manifest: two
// cells with equal hashes simulated the same system.
func configHash(cfg Config) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	return campaign.SHA256Hex(data)
}

// captureTrace renders an observation's Chrome trace-event JSON when the
// cell armed tracing ("" otherwise, so the runner writes no trace file).
func captureTrace(ob *Observation, armed bool) string {
	if !armed {
		return ""
	}
	var sb strings.Builder
	if err := ob.WriteTrace(&sb); err != nil {
		return ""
	}
	return sb.String()
}
