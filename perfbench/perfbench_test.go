package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"netdimm"
)

// tinyScale runs every workload's code paths on a few hosts and packets.
var tinyScale = scale{
	rackHosts: 16, rackPackets: 160,
	incastHosts: 4, incastPackets: 400,
	ranks: 4, payload: 8 << 10,
	digests: map[string][]string{
		"rack256": {
			"675b0024ff5059ed366efc932d9b6f52515007739e4e723206f40918d4cf6d3c",
			"feabaf0e35d6574b2c6cfc6b92059d0e16c99fd89057162874b8230692c2fa76",
			"5e8b6df00eec3c95ded977441c7a384513dcd18bb8ae43d63fc34be38ff454f9",
			"03523e7f11b31725e13197f3dcdf89ae459d67dc2ca4bfea8d2183f11b662c7a",
			"9bfa128545d3caf1f8c9845e301555ed82d743cc0c3f6aac1320c31b6557e430",
			"ad9132e7bf4b1b6a4268637da92607686b3e23f2bfafd501f66eac24700d7a39",
			"062f95d0e90fe9dbb49b9ab2277eac096b8b1e3e1b13a3d2c6b41f225c0b2c0e",
			"a34b4c6eab116a8a38c009384ca56c8f24a80434fb752237b4a5ade2ef98a022",
			"961fbc2c3ad416d4611b99c13b0a825d8b836df3f0f34c64d1891e4a93627fcc",
			"1b5f619fc5a9720d47ae609e1d59d91c2b3fe651f3e8ebb8541f483e3fa936c0",
			"520fea21af2a7470f948219ea2c5ad5c6c717a3d47b46379fe333a80725b81c7",
			"aa91f93bae8529c87caf65345f4e9f41f4bb9695be3012d827aa69806e30194c",
		},
		"incast32": {
			"0872f30a91ecec89ea42db2195b086026d5113888522f3da625de7673b647c4f",
			"6a597d93b59784f66e5e9d0d75becc53a7e16a13323ff5fdf0ea6c8d8cad6250",
			"5e1f615fe0131bf583aa032a8a15f6609ea295986aaa39e5e6ce361999d4cbf4",
			"07f2834c6a767b58d3919b1475626db2d0f85c75b489630af007c875c27f96e6",
			"bb75a669530cd49068d3fdf7e4e4d1b10a5f7c5a545035dcc6d454bc1abd2cad",
			"1bbca7ff6a8050d19a192902b928ca3c2d0306213380b50a8919bd94ce714ec4",
		},
		"allreduce64": {
			"4c4fe154c7c60081dc5192fdbdfcd7ef72a392cfb4fab158b8e26f9d0c0d95cb",
			"f832ba179719187b2b3b65a9f9ece1ef0804e199ea4fdb054d75576ded68ff33",
			"d1ce3f7a9caa50f29c3a175960a3b7d40fdea25486cfc32b9d7e08fec71bd99a",
		},
	},
}

func tinyWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := findWorkload(name, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestTinyWorkloadsPassCheck(t *testing.T) {
	for _, w := range workloads(tinyScale) {
		t.Run(w.name, func(t *testing.T) {
			b := &bench{w: w, seed: defaultSeed, log: &bytes.Buffer{}, pinned: tinyScale.digests[w.name]}
			cells, csv, err := w.sweep(defaultSeed, true)
			b.check(cells, err)
			plain, _, err := w.sweep(defaultSeed, false)
			b.check(plain, err)
			if b.failed != 0 || b.attempted != 2*len(cells) || len(cells) == 0 {
				var got []string
				for _, c := range cells {
					got = append(got, c.digest())
				}
				t.Fatalf("%d of %d cells failed: %s\ndigests: %q", b.failed, b.attempted, b.log, got)
			}
			ev := b.events(cells, csv)
			for i, e := range ev {
				if e <= 0 {
					t.Errorf("cell %d fired %d events", i, e)
				}
			}
			point, err := w.point(defaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range point {
				if c.row != cells[w.pointCells[i]].row {
					t.Errorf("one-point cell %d = %s, full-grid cell %d = %s", i, c.row, w.pointCells[i], cells[w.pointCells[i]].row)
				}
			}
		})
	}
}

// checkFails reports whether the output check rejects cells against the
// pinned digests.
func checkFails(cells []cell, pinned []string) bool {
	b := &bench{log: &bytes.Buffer{}, pinned: pinned}
	b.check(cells, nil)
	return b.failed > 0
}

func TestChangedFieldFailsCheck(t *testing.T) {
	cfg, seed := tinyWorkload(t, "rack256").cfg, uint64(defaultSeed)
	rack, _, err := netdimm.RunRackSweepWithConfig(cfg, []int{rackRacks}, rackLoads, tinyScale.rackPackets, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	pinned := tinyScale.digests["rack256"]
	if checkFails(rackCells(rack, tinyScale.rackPackets), pinned) {
		t.Fatal("unchanged rows fail the check")
	}
	p99 := append([]netdimm.RackSweepResult(nil), rack...)
	p99[3].P99++
	if !checkFails(rackCells(p99, tinyScale.rackPackets), pinned) {
		t.Error("a changed P99 passes the digest check")
	}
	lost := append([]netdimm.RackSweepResult(nil), rack...)
	lost[0].Delivered--
	if !checkFails(rackCells(lost, tinyScale.rackPackets), nil) {
		t.Error("a lost packet passes the conservation check")
	}

	icfg := tinyWorkload(t, "incast32").cfg
	incast, _, err := netdimm.RunLoadSweepWithConfig(icfg, incastLoads, tinyScale.incastPackets, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if checkFails(incastCells(incast, tinyScale.incastPackets), tinyScale.digests["incast32"]) {
		t.Fatal("unchanged incast rows fail the check")
	}
	incast[1].Dropped++
	if !checkFails(incastCells(incast, tinyScale.incastPackets), nil) {
		t.Error("an extra drop passes the conservation check")
	}

	ccfg := tinyWorkload(t, "allreduce64").cfg
	coll, err := netdimm.RunCollSweepWithConfig(ccfg, []int{tinyScale.ranks}, []string{"allreduce"}, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if checkFails(collCells(coll), tinyScale.digests["allreduce64"]) {
		t.Fatal("unchanged collective rows fail the check")
	}
	skew := append([]netdimm.CollSweepResult(nil), coll...)
	skew[1].StepSkew++
	if !checkFails(collCells(skew), tinyScale.digests["allreduce64"]) {
		t.Error("a changed step skew passes the digest check")
	}
	coll[2].Dropped = 1
	if !checkFails(collCells(coll), nil) {
		t.Error("a collective drop passes the check")
	}
}

// declared reads the metric names BENCHMARK.json declares under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func TestPrintedMetricsAreDeclared(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	want := map[string][]string{"0": declared(t, "end_to_end"), "1": declared(t, "per_layer")}
	for _, w := range workloads(tinyScale) {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seconds", "0", "--trace", trace,
					"--spans", filepath.Join(t.TempDir(), "spans.json")}
				if code := run(args, &stdout, &stderr, tinyScale); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result %+v: %s", res, stderr.String())
				}
				var got []string
				for name, m := range res.Metrics {
					if !valid.MatchString(name) {
						t.Errorf("metric name %q", name)
					}
					if m.Unit == "" {
						t.Errorf("metric %s has no unit", name)
					}
					got = append(got, name)
				}
				sort.Strings(got)
				if strings.Join(got, " ") != strings.Join(want[trace], " ") {
					t.Errorf("printed metrics\n%v\ndeclared\n%v", got, want[trace])
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr, tinyScale); code == 0 {
		t.Fatal("unknown workload exits 0")
	}
	if stdout.Len() != 0 {
		t.Fatalf("unknown workload printed %q", stdout.String())
	}
}
