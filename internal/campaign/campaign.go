// Package campaign is the reproducible experiment-campaign harness: it
// turns a declarative grid — experiments × scenarios × repeats — into one
// validated, versioned output directory.
//
// A campaign grid is a JSON document (see Grid) naming which experiment
// families to run, under which scenarios, how many independent repeats of
// each, and how wide to fan the cells out. Plan expands the grid into a
// deterministic cell list with one derived seed per cell; Runner executes
// the cells through an injected Executor (the root netdimm package binds
// each family to its Run*WithConfig facade), validates every produced CSV
// against the family's schema and expected row count, and writes a
// timestamped directory:
//
//	campaigns/<stamp>/
//	  manifest.json   host, go version, git revision, per-cell seed+config hash
//	  run.log         wall-clock execution log
//	  summary.txt     grouped per-family summary tables
//	  csv/<cell>.csv  one validated CSV per cell
//	  metrics/...     per-cell metrics-registry CSVs (cells with Metrics on)
//	  trace/...       per-cell Chrome trace-event JSON (cells with Trace on)
//
// Determinism contract: re-running the same grid with the same seeds
// yields byte-identical csv/ and metrics/ contents at any parallelism (the
// manifest and log record wall times and may differ). CI pins this by
// running the default grid twice and diffing the directories.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"time"
)

// Experiment is one row of a campaign grid: an experiment family plus the
// axes it sweeps. Zero-valued axes select the family's own defaults, so a
// minimal row is just {"Experiment": "fig11"}.
type Experiment struct {
	// Experiment names the family: one of the keys of the schema registry
	// passed to Validate.
	Experiment string
	// Scenario selects the simulated system: a named preset or a JSON
	// config file path, exactly as the -scenario CLI flag ("" = table1).
	Scenario string
	// Repeats overrides the grid-level repeat count for this row (0 =
	// inherit).
	Repeats int
	// Seed overrides the grid-level base seed for this row (0 = inherit).
	Seed uint64
	Axes
}

// Axes are the inputs an experiment family can consume. A grid row and a
// planned cell carry them verbatim, and the CLI fills the same struct from
// its flags. Zero values select the family default; Schema.Check rejects
// an axis the family's schema does not list.
type Axes struct {
	// Packets is the per-cell packet budget for trace/sweep families
	// (0 = the family default).
	Packets int
	// Sizes is the packet-size axis of fig4/fig11 (nil = paper sizes).
	Sizes []int
	// SwitchNs overrides the switch port-to-port latency in nanoseconds
	// for fig4/fig11 (0 = 100ns, the CLI default).
	SwitchNs int
	// Rates is the loss-rate axis of faultsweep or the offered-load axis
	// of loadsweep/racksweep (nil = family default grid).
	Rates []float64
	// Racks is the leaf-count axis of racksweep (nil = {2,4,8}).
	Racks []int
	// Outages is the spine-outage axis of failsweep in Go duration syntax
	// ("0" allowed; nil = the family default grid).
	Outages []string
	// Hosts overrides Load.Hosts for the sweep families (0 = scenario).
	Hosts int
	// Shards overrides Load.Shards (0 = scenario; results are identical
	// at any shard count).
	Shards int
	// Ranks is the rank-count axis of collsweep (nil = {4,...,128}).
	Ranks []int
	// Ops is the operation axis of collsweep: any of "allreduce",
	// "broadcast", "reducescatter" (nil = all three).
	Ops []string
	// Payload overrides Collective.PayloadBytes for collsweep (0 =
	// scenario, whose zero means 64KiB).
	Payload int
	// Metrics arms the metrics registry for the row's cells; the registry
	// CSV is written next to the cell's result CSV.
	Metrics bool
	// Trace arms per-packet lifecycle tracing for the row's cells (observed
	// families only); the Chrome trace-event JSON is written under trace/.
	Trace bool
}

// Validate checks every axis value on its own, independent of family.
func (a Axes) Validate() error {
	if a.Packets < 0 || a.Hosts < 0 || a.Shards < 0 || a.SwitchNs < 0 || a.Payload < 0 {
		return fmt.Errorf("Packets/Hosts/Shards/SwitchNs/Payload must be non-negative")
	}
	for _, s := range a.Sizes {
		if s <= 0 {
			return fmt.Errorf("packet size %d must be positive", s)
		}
	}
	for _, r := range a.Rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("rate %g must be a finite non-negative fraction of line rate", r)
		}
	}
	for _, r := range a.Racks {
		if r < 1 {
			return fmt.Errorf("rack count %d must be at least 1", r)
		}
	}
	if _, err := a.OutageDurations(); err != nil {
		return err
	}
	for _, r := range a.Ranks {
		if r < 2 {
			return fmt.Errorf("rank count %d must be at least 2", r)
		}
	}
	for _, op := range a.Ops {
		switch op {
		case "allreduce", "broadcast", "reducescatter":
		default:
			return fmt.Errorf("unknown collective op %q (want allreduce, broadcast or reducescatter)", op)
		}
	}
	return nil
}

// OutageDurations parses the Outages axis; Go duration syntax plus a bare
// "0" is accepted. An empty axis yields nil (the family default grid).
func (a Axes) OutageDurations() ([]time.Duration, error) {
	var out []time.Duration
	for _, o := range a.Outages {
		s := strings.TrimSpace(o)
		if s == "0" {
			out = append(out, 0)
			continue
		}
		d, err := time.ParseDuration(s)
		if err != nil {
			return nil, fmt.Errorf("bad outage duration %q: %v (use Go duration syntax, e.g. \"20us\", or \"0\")", o, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// Grid is a declarative experiment campaign: the JSON document the
// `campaign` subcommand loads via -grid.
type Grid struct {
	// Name labels the campaign in the manifest and summary (default
	// "campaign").
	Name string
	// Seed is the base seed every cell seed derives from (default 3, the
	// CLI default).
	Seed uint64
	// Repeats is the default independent-repeat count per experiment row
	// (default 1).
	Repeats int
	// Parallelism fans cells over worker goroutines: 0 = all cores, 1 =
	// sequential, N = at most N. Cell results are identical either way.
	Parallelism int
	// Experiments lists the grid rows; at least one is required.
	Experiments []Experiment
}

// Schema describes the contract of one experiment family: the axes a grid
// row may set, the exact CSV header, a lower bound on data rows and, when
// the axes determine it, the exact row count. The runner validates every
// cell's CSV against its family schema before declaring the campaign
// successful.
type Schema struct {
	Axes    []string
	Header  []string
	MinRows int
	// WantRows returns the exact data-row count a cell with the given axes
	// produces, or 0 when only MinRows applies. Nil means always 0.
	WantRows func(Axes) int
}

// Check validates axes for the named family: every value must be well
// formed, and every axis set must be one the schema lists.
func (s Schema) Check(family string, a Axes) error {
	if err := a.Validate(); err != nil {
		return err
	}
	var extra []string
	v := reflect.ValueOf(a)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; !v.Field(i).IsZero() && !slices.Contains(s.Axes, name) {
			extra = append(extra, name)
		}
	}
	if len(extra) == 0 {
		return nil
	}
	accepts := "no axes"
	if len(s.Axes) > 0 {
		accepts = strings.Join(s.Axes, ", ")
	}
	return fmt.Errorf("%s does not consume %s (it accepts %s)", family, strings.Join(extra, ", "), accepts)
}

// ReadGrid decodes a campaign grid from JSON. Unknown fields are rejected
// so a typo'd axis fails loudly instead of silently selecting a default.
func ReadGrid(r io.Reader) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("campaign: grid: %w", err)
	}
	return g, nil
}

// LoadGrid reads a grid file. The grid is not yet validated — callers
// follow with Validate against their schema registry.
func LoadGrid(path string) (Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return Grid{}, fmt.Errorf("campaign: grid: %w", err)
	}
	defer f.Close()
	g, err := ReadGrid(f)
	if err != nil {
		return Grid{}, fmt.Errorf("campaign: grid %s: %w", path, err)
	}
	return g, nil
}

// Validate checks the grid against a family registry, returning an
// actionable error naming the offending row. It mirrors the spec-plane
// convention: every reported problem says what was wrong and what would
// be accepted.
func (g Grid) Validate(known map[string]Schema) error {
	if len(g.Experiments) == 0 {
		return fmt.Errorf("campaign: grid has no experiments")
	}
	if g.Repeats < 0 {
		return fmt.Errorf("campaign: Repeats %d is negative", g.Repeats)
	}
	if g.Parallelism < 0 {
		return fmt.Errorf("campaign: Parallelism %d is negative (0 = all cores)", g.Parallelism)
	}
	for i, e := range g.Experiments {
		at := func(format string, args ...any) error {
			return fmt.Errorf("campaign: experiments[%d] (%s): %s", i, e.Experiment, fmt.Sprintf(format, args...))
		}
		if e.Experiment == "" {
			return fmt.Errorf("campaign: experiments[%d]: missing Experiment family (known: %s)", i, familyList(known))
		}
		schema, ok := known[e.Experiment]
		if !ok {
			return fmt.Errorf("campaign: experiments[%d]: unknown experiment family %q (known: %s)", i, e.Experiment, familyList(known))
		}
		if e.Repeats < 0 {
			return at("Repeats %d must be non-negative", e.Repeats)
		}
		if err := schema.Check(e.Experiment, e.Axes); err != nil {
			return at("%v", err)
		}
	}
	return nil
}

// familyList renders the registry keys sorted for error messages.
func familyList(known map[string]Schema) string {
	names := make([]string, 0, len(known))
	for name := range known {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Cell is one planned unit of campaign work: a fully resolved
// (experiment, scenario, repeat) instance with its derived seed. Cells are
// pure values, so the runner can fan them out and the manifest can record
// them verbatim.
type Cell struct {
	// Index is the cell's position in plan order.
	Index int
	// Name is the cell's file stem: <experiment>-<scenario-slug>-r<repeat>.
	Name string
	// Experiment and Scenario resolve exactly as in the grid row.
	Experiment string
	Scenario   string
	// Repeat numbers the independent repeat, from 0.
	Repeat int
	// Seed is the cell's derived seed: base + 1000*rowIndex + repeat,
	// where base is the row's Seed override or the grid Seed. The formula
	// is part of the reproducibility contract (golden-pinned), so two
	// plans of the same grid always agree.
	Seed uint64
	// Axes copy the grid row's axes verbatim.
	Axes
}

// Plan expands the grid into its deterministic cell list. The grid must
// have passed Validate.
func (g Grid) Plan() []Cell {
	var cells []Cell
	used := map[string]bool{}
	baseSeed := g.Seed
	if baseSeed == 0 {
		baseSeed = 3
	}
	repeats := g.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	for ri, e := range g.Experiments {
		reps := repeats
		if e.Repeats > 0 {
			reps = e.Repeats
		}
		base := baseSeed
		if e.Seed != 0 {
			base = e.Seed
		}
		for r := 0; r < reps; r++ {
			// Two grid rows with the same family and scenario would
			// produce colliding file stems; suffix the later row's cells
			// with its row index so csv/ never silently overwrites.
			name := fmt.Sprintf("%s-%s-r%d", e.Experiment, scenarioSlug(e.Scenario), r)
			if used[name] {
				name = fmt.Sprintf("%s-%s-x%d-r%d", e.Experiment, scenarioSlug(e.Scenario), ri, r)
			}
			used[name] = true
			cells = append(cells, Cell{
				Index:      len(cells),
				Name:       name,
				Experiment: e.Experiment,
				Scenario:   e.Scenario,
				Repeat:     r,
				Seed:       base + uint64(1000*ri+r),
				Axes:       e.Axes,
			})
		}
	}
	return cells
}

// scenarioSlug turns a scenario argument into a filename-safe stem:
// "scenarios/clos-2x4.json" becomes "clos-2x4", "" becomes "table1".
func scenarioSlug(s string) string {
	if s == "" {
		return "table1"
	}
	s = filepath.Base(s)
	s = strings.TrimSuffix(s, filepath.Ext(s))
	var sb strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	if sb.Len() == 0 {
		return "scenario"
	}
	return sb.String()
}
