package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func hostStat(median, iqr float64) stat {
	return stat{Unit: "s", Value: median, K: 7, Min: median - iqr, Q1: median - iqr/2, Median: median, Q3: median + iqr/2, Max: median + iqr}
}

func fakeResult(runS, runIQR, allocsK, p99 float64) *result {
	return &result{
		Workload: "serve_hot",
		EndToEnd: map[string]stat{
			"run_s":       hostStat(runS, runIQR),
			"allocs_k":    hostStat(allocsK, 0.1),
			"virt_p99_ms": {Unit: "ms", Value: p99},
		},
	}
}

func writeResult(t *testing.T, dir, name string, r *result) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := r.writeJSON(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	base := writeResult(t, dir, "base.json", fakeResult(2.0, 0.04, 1229, 7080))
	cases := []struct {
		name         string
		b            *result
		want         map[string]verdict
		worse, unres int
	}{
		{"same", fakeResult(2.01, 0.04, 1229.05, 7080),
			map[string]verdict{"run_s": unchanged, "allocs_k": unchanged, "virt_p99_ms": unchanged}, 0, 0},
		{"faster and fewer allocs", fakeResult(1.7, 0.04, 1100, 7080),
			map[string]verdict{"run_s": better, "allocs_k": better, "virt_p99_ms": unchanged}, 0, 0},
		{"slower", fakeResult(2.6, 0.04, 1229, 7080),
			map[string]verdict{"run_s": worse, "allocs_k": unchanged, "virt_p99_ms": unchanged}, 1, 0},
		{"modelled metric moved", fakeResult(2.0, 0.04, 1229, 7081),
			map[string]verdict{"run_s": unchanged, "allocs_k": unchanged, "virt_p99_ms": worse}, 1, 0},
		{"too noisy to call", fakeResult(2.05, 0.9, 1229, 7000),
			map[string]verdict{"run_s": unresolved, "allocs_k": unchanged, "virt_p99_ms": better}, 0, 1},
	}
	for _, c := range cases {
		var out bytes.Buffer
		nWorse, nUnres, err := compare(&out, base, writeResult(t, dir, "b.json", c.b))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if nWorse != c.worse || nUnres != c.unres {
			t.Errorf("%s: %d worse %d unresolved, want %d and %d\n%s", c.name, nWorse, nUnres, c.worse, c.unres, out.String())
		}
		for metric, want := range c.want {
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if len(f) > 2 && f[0] == "serve_hot" && f[1] == metric {
					found = true
					if got := f[len(f)-1]; got != string(want) {
						t.Errorf("%s: %s is %s, want %s", c.name, metric, got, want)
					}
				}
			}
			if !found {
				t.Errorf("%s: no row for %s", c.name, metric)
			}
		}
	}
}

// TestCompareDirectories: with several runs a side, the spread is taken
// across the runs, and a change every run agrees on counts even when the
// spread is wider than the bound.
func TestCompareDirectories(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	for i, v := range []float64{2.0, 2.4, 2.8} {
		writeResult(t, a, string(rune('a'+i))+".json", fakeResult(v, 0.01, 1229, 7080))
		writeResult(t, b, string(rune('a'+i))+".json", fakeResult(v-1.0, 0.01, 1229, 7080))
	}
	var out bytes.Buffer
	nWorse, nUnres, err := compare(&out, a, b)
	if err != nil || nWorse != 0 || nUnres != 0 {
		t.Fatalf("%d worse, %d unresolved, %v\n%s", nWorse, nUnres, err, out.String())
	}
	if !strings.Contains(out.String(), "better") {
		t.Errorf("expected run_s better:\n%s", out.String())
	}
	// -compare exits non-zero on any worse pair.
	if err := run([]string{"-compare", b, a}); err == nil {
		t.Error("run -compare with a worse pair returned nil")
	}
	if _, _, err := compare(&out, a, filepath.Join(a, "missing.json")); err == nil || !os.IsNotExist(err) {
		t.Errorf("missing file: %v", err)
	}
}
