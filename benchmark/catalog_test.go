package main

import (
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

// benchmarkFile mirrors BENCHMARK.json key for key.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileEndToEnd `json:"end_to_end"`
	PerLayer   []filePerLayer `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type filePerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// fromCatalogue is the BENCHMARK.json the catalogue implies.
func fromCatalogue() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, sc := range scenarios {
		if !sc.byHand {
			f.Workloads = append(f.Workloads, fileWorkload{Name: sc.name, Why: sc.why})
		}
	}
	for _, m := range endToEnd {
		if m.SeedBound > 0 {
			f.EndToEnd = append(f.EndToEnd, fileEndToEnd{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.SeedBound})
		}
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, filePerLayer{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return f
}

// TestBenchmarkJSONMatchesCatalogue fails if a name, unit, direction or
// bound in BENCHMARK.json is not what the program emits, or the reverse.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want, err := json.MarshalIndent(fromCatalogue(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s is out of step with the catalogue; run go test -run TestBenchmarkJSONMatchesCatalogue -update\n--- file\n%s\n--- catalogue\n%s", path, got, want)
	}
}

// TestCatalogueObeysContract checks the limits the driver enforces on
// BENCHMARK.json before a single run.
func TestCatalogueObeysContract(t *testing.T) {
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameOK.MatchString(n) {
			t.Errorf("name %q has a character outside letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	f := fromCatalogue()
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range f.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range f.EndToEnd {
		name(m.Name)
		if !unitOK.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range f.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range f.PerLayer {
		name(m.Name)
		if !unitOK.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	// Every per-layer metric names the end-to-end metric it should move.
	for _, m := range perLayer {
		if _, ok := findMetric(endToEnd, m.Moves); !ok && m.Moves != "none" {
			t.Errorf("%s moves %q, which is not an end-to-end metric", m.Name, m.Moves)
		}
	}
	// Contract metrics are defined on every workload.
	for _, m := range endToEnd {
		if m.SeedBound > 0 && m.On != nil {
			t.Errorf("%s is in BENCHMARK.json but not defined on every workload", m.Name)
		}
	}
}
