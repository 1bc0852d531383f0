package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"netdimm"
)

// cliGoldens pins the CLI's output for every checked-in golden except
// racksweep-default.csv, whose default grid takes too long for the unit
// suite; the CI golden-output job diffs that one.
var cliGoldens = []struct {
	golden string
	args   []string
}{
	{"table1.txt", []string{"table1"}},
	{"fig4-table1.csv", []string{"-csv", "fig4"}},
	{"fig4-ddr5.csv", []string{"-csv", "-scenario", "ddr5", "fig4"}},
	{"fig7-default.csv", []string{"-csv", "fig7"}},
	{"fig11-pcie-gen3.csv", []string{"-csv", "-scenario", "pcie-gen3", "fig11"}},
	{"fig12a-default.csv", []string{"-csv", "fig12a"}},
	{"fig12b-default.csv", []string{"-csv", "fig12b"}},
	{"faultsweep-default.csv", []string{"-csv", "faultsweep"}},
	{"loadsweep-default.csv", []string{"-csv", "loadsweep"}},
	{"failsweep-default.csv", []string{"-csv", "failsweep"}},
	{"collsweep-default.csv", []string{"-csv", "collsweep"}},
	// Text tables: they carry the %v-formatted durations, saturation
	// knees, Fig. 11 reductions and headline averages the CSVs omit.
	{"fig4-default.txt", []string{"fig4"}},
	{"fig7-default.txt", []string{"fig7"}},
	{"fig11-pcie-gen3.txt", []string{"-scenario", "pcie-gen3", "fig11"}},
	{"fig12a-default.txt", []string{"fig12a"}},
	{"fig12b-default.txt", []string{"fig12b"}},
	{"ablation-default.txt", []string{"ablation"}},
	{"bandwidth-default.txt", []string{"bandwidth"}},
	{"headline-default.txt", []string{"headline"}},
	{"mixed-default.txt", []string{"mixed"}},
	{"faultsweep-metrics.txt", []string{"-metrics", "faultsweep"}},
	{"loadsweep-default.txt", []string{"loadsweep"}},
	{"failsweep-default.txt", []string{"failsweep"}},
	{"collsweep-ranks.txt", []string{"-ranks", "4,8", "collsweep"}},
	{"racksweep-small.txt", []string{"-n", "200", "-hosts", "32", "-racks", "2", "-rate", "0.05,0.2", "racksweep"}},
}

// cliBin is the command built once for the tests that drive it.
var cliBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "netdimm-sim-test")
	if err != nil {
		panic(err)
	}
	cliBin = filepath.Join(dir, "netdimm-sim")
	gobin, err := exec.LookPath("go")
	if err == nil {
		var out []byte
		if out, err = exec.Command(gobin, "build", "-o", cliBin, ".").CombinedOutput(); err != nil {
			err = fmt.Errorf("%v\n%s", err, out)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "building netdimm-sim: %v\n", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI runs the built command from the repository root, as CI does.
func runCLI(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(cliBin, args...)
	cmd.Dir = filepath.Join("..", "..")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// TestCLIGoldens runs the built command and diffs each output byte for
// byte against its golden (run from the repository root, as CI does).
func TestCLIGoldens(t *testing.T) {
	for _, tc := range cliGoldens {
		t.Run(tc.golden, func(t *testing.T) {
			got, stderr, err := runCLI(tc.args...)
			if err != nil {
				t.Fatalf("netdimm-sim %v: %v\n%s", tc.args, err, stderr)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("netdimm-sim %v drifted from golden %s\ngot:\n%s\nwant:\n%s", tc.args, tc.golden, got, want)
			}
		})
	}
}

// TestCLIRefusesUnsupportedOutputFlags pins that a single verb given
// -csv, -trace or -metrics it cannot honour fails and names the verbs
// that can, and that a word after the verb that the verb does not take
// fails and is named, instead of either being silently dropped.
func TestCLIRefusesUnsupportedOutputFlags(t *testing.T) {
	outdir := t.TempDir()
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-trace", filepath.Join(t.TempDir(), "t.json"), "-metrics", "fig4"},
			"fig4 does not support -trace (verbs that do: fig11, mixed, faultsweep, loadsweep, collsweep)"},
		// racksweep and failsweep record no trace events, so they refuse
		// -trace rather than write an empty trace.
		{[]string{"-trace", filepath.Join(t.TempDir(), "t.json"), "racksweep"}, "racksweep does not support -trace"},
		{[]string{"-metrics", "fig4"}, "fig4 does not support -metrics"},
		{[]string{"-csv", "table1"}, "table1 does not support -csv (verbs that do: fig4, fig5, fig7, fig11, fig12a, fig12b, ablation, "},
		{[]string{"-csv", "headline"}, "headline does not support -csv"},
		{[]string{"fig4", "-csv"}, `fig4: unexpected "-csv" after the verb; flags go before it`},
		{[]string{"fig4", "extra"}, `fig4: unexpected argument "extra"`},
		{[]string{"table1", "a", "b"}, `table1: unexpected argument "a"`},
		{[]string{"all", "extra"}, `all: unexpected argument "extra"`},
		{[]string{"campaign", "-grid", "scenarios/campaign-default.json", "-outdir", outdir, "extra"},
			`campaign: unexpected argument "extra"`},
		{[]string{"replay"}, "replay: usage: netdimm-sim replay FILE"},
		{[]string{"replay", "a.ndtr", "b.ndtr"}, `replay: unexpected argument "b.ndtr"`},
		{[]string{"replay", "a.ndtr", "-csv"}, `replay: unexpected "-csv" after the verb; flags go before it`},
	}
	for _, tc := range cases {
		_, stderr, err := runCLI(tc.args...)
		if err == nil {
			t.Errorf("netdimm-sim %v exited 0", tc.args)
		} else if !strings.Contains(stderr, tc.want) {
			t.Errorf("netdimm-sim %v: stderr %q does not contain %q", tc.args, stderr, tc.want)
		}
	}
	// The refused campaign ran no cell.
	if entries, err := os.ReadDir(outdir); err != nil || len(entries) != 0 {
		t.Errorf("refused campaign left %v in its output dir (err %v)", entries, err)
	}
}

// TestCLIAblationCSV pins that -csv ablation prints the same CSV the
// campaign writes for an ablation cell.
func TestCLIAblationCSV(t *testing.T) {
	got, stderr, err := runCLI("-csv", "ablation")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "campaign-default", "csv", "ablation-table1-r0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("-csv ablation:\n%s\nwant:\n%s", got, want)
	}
}

// TestFlagHelpListsHonouringVerbs checks the registry-generated flag help
// against the capabilities each family declares.
func TestFlagHelpListsHonouringVerbs(t *testing.T) {
	help := func(name string) string { return flag.Lookup(name).Usage }
	verbs := map[string]bool{}
	for _, c := range commands {
		verbs[c.name] = true
	}
	for name, schema := range netdimm.CampaignSchemas() {
		if !verbs[name] {
			t.Errorf("registry family %s has no CLI verb", name)
		}
		if h := help("csv"); !strings.Contains(h, " "+name+",") && !strings.Contains(h, " "+name+")") {
			t.Errorf("-csv help does not list %s: %q", name, help("csv"))
		}
		for axis, flagName := range map[string]string{"Trace": "trace", "Metrics": "metrics", "Hosts": "hosts", "Shards": "shards", "Packets": "n"} {
			listed := strings.Contains(help(flagName), " "+name+",") || strings.Contains(help(flagName), " "+name+")")
			if want := slices.Contains(schema.Axes, axis); listed != want {
				t.Errorf("-%s help lists %s = %v, but the family consumes %s = %v: %q", flagName, name, listed, axis, want, help(flagName))
			}
		}
	}
	for flagName, verb := range map[string]string{"trace": "mixed", "metrics": "mixed", "n": "headline"} {
		if !strings.Contains(help(flagName), verb) {
			t.Errorf("-%s help does not list %s: %q", flagName, verb, help(flagName))
		}
	}
}

// TestCampaignDefaultGolden runs the checked-in default grid in-process and
// compares every file under csv/ and metrics/ byte for byte, so an encoder
// slip in the campaign binding cannot pass as merely self-consistent.
func TestCampaignDefaultGolden(t *testing.T) {
	gridPath := filepath.Join("..", "..", "scenarios", "campaign-default.json")
	grid, err := netdimm.LoadCampaignGrid(gridPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := netdimm.RunCampaign(grid, gridPath, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"csv", "metrics"} {
		golden := filepath.Join("testdata", "golden", "campaign-default", sub)
		if got, want := listDir(t, filepath.Join(rep.Dir, sub)), listDir(t, golden); !slices.Equal(got, want) {
			t.Fatalf("%s/ holds %v, golden holds %v", sub, got, want)
		}
		for _, name := range listDir(t, golden) {
			got, err := os.ReadFile(filepath.Join(rep.Dir, sub, name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(golden, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s drifted from golden\ngot:\n%s\nwant:\n%s", sub, name, got, want)
			}
		}
	}
}

// listDir returns the file names in dir, sorted.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}
