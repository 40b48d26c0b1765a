package main

import (
	"encoding/json"
	"encoding/xml"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestFlagsMatchParent walks every subcommand's flag set, as -h prints it
// (name, type, help text, default), against testdata/flags.txt: the -h
// output of the cmd/vb-* binaries the subcommands were folded from. A flag
// added, dropped, renamed or re-defaulted shows as a diff.
func TestFlagsMatchParent(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "flags.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, header := range strings.Split(string(want), "\n") {
		name, ok := strings.CutPrefix(header, "# vb ")
		if !ok {
			continue
		}
		_, usage, code := vb(append(strings.Fields(name), "-h")...)
		if code != 0 {
			t.Errorf("vb %s -h: exit status %d", name, code)
		}
		_, flags, _ := strings.Cut(usage, "\n") // drop "Usage of vb <name>:"
		got.WriteString(header + "\n" + flags)
	}
	if got.String() != string(want) {
		t.Errorf("flag sets differ from testdata/flags.txt\ngot:\n%s", got.String())
	}
	var listed []string
	for _, c := range commands {
		if !strings.Contains(string(want), "# vb "+c.name) {
			listed = append(listed, c.name)
		}
	}
	if len(listed) > 0 {
		t.Errorf("subcommands missing from testdata/flags.txt: %v", listed)
	}
}

// TestFailedRunKeepsProfiles: the runs one wants to profile are the ones
// that go wrong. Each cmd/vb-* main left through os.Exit on those, past its
// deferred stop, and wrote no heap profile.
func TestFailedRunKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	mem, cpu := filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "cpu.pprof")
	_, errs, code := vb("sim", "-engine", "nope", "-memprofile", mem, "-cpuprofile", cpu)
	if code != 1 || !strings.Contains(errs, `vb sim: unknown engine "nope"`) {
		t.Fatalf("exit status %d, stderr %q; want 1 and the unknown-engine error", code, errs)
	}
	for _, f := range []string{mem, cpu} {
		if info, err := os.Stat(f); err != nil || info.Size() == 0 {
			t.Errorf("%s: missing or empty after a failed run (%v)", filepath.Base(f), err)
		}
	}
}

// TestFig14TraceCarriesSeries: Fig 14 runs on an overlay without a cluster,
// and the constructor it used to have of its own never attached the
// sampler: -sample-every wrote a trace with no series and a counter dump
// without the engine's queue depth. Built by core.NewOverlay it samples as
// every other figure does.
func TestFig14TraceCarriesSeries(t *testing.T) {
	dir := t.TempDir()
	trace, counters := filepath.Join(dir, "t"), filepath.Join(dir, "c")
	if _, errs, code := vb("overhead", "-fig", "14", "-min-servers", "256", "-max-servers", "256", "-workers", "1",
		"-sample-every", "10ms", "-trace", trace, "-counters", counters); code != 0 {
		t.Fatalf("vb overhead: exit status %d\n%s", code, errs)
	}
	csv, errs, code := vb("trace", "series", trace)
	if code != 0 {
		t.Fatalf("vb trace series: exit status %d\n%s", code, errs)
	}
	if lines := strings.Split(strings.TrimSpace(csv), "\n"); len(lines) < 2 {
		t.Errorf("vb trace series: want a header and at least one row, got\n%s", csv)
	}
	dump, err := os.ReadFile(counters)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "sim/queue_depth") {
		t.Errorf("-counters dump lacks sim/queue_depth:\n%s", dump)
	}
}

// TestFigureFiles: -svg writes one well-formed SVG a chart, named by the
// chart's stem, and -json a document encoding/json reads back.
func TestFigureFiles(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args  string
		stems []string
	}{
		{"qos -svg $DIR/qos -json $DIR/qos.json", []string{"fig12-failed-calls", "fig13-rt-cdf"}},
		{"rebalance -fig 9 -servers 256 -svg $DIR/rebalance", []string{"fig9-utilization-thr0.1", "fig9-utilization-thr0.3"}},
		{"placement -svg $DIR/placement -json $DIR/placement.json", []string{"placement-wave1-vbundle-dht"}},
	} {
		args := strings.Fields(strings.ReplaceAll(c.args, "$DIR", dir))
		if _, errs, code := vb(args...); code != 0 {
			t.Fatalf("vb %s: exit status %d\n%s", c.args, code, errs)
		}
		svgDir := filepath.Join(dir, args[0])
		for _, stem := range c.stems {
			if _, err := os.Stat(filepath.Join(svgDir, stem+".svg")); err != nil {
				t.Errorf("vb %s: no chart %s: %v", c.args, stem, err)
			}
		}
		svgs, err := filepath.Glob(filepath.Join(svgDir, "*.svg"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range svgs {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				XMLName xml.Name
			}
			if err := xml.Unmarshal(data, &doc); err != nil || doc.XMLName.Local != "svg" {
				t.Errorf("%s: root %q, error %v; want a well-formed svg document", filepath.Base(path), doc.XMLName.Local, err)
			}
		}
	}
	for _, name := range []string{"qos.json", "placement.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil || doc["Params"] == nil {
			t.Errorf("%s: error %v, keys %d; want an object with its Params", name, err, len(doc))
		}
	}
}

// TestTraceExplainsCrashes records the crash sweep of faults-64-crash and
// reads it back through every trace reader: the node left down forever is
// explained as such, a migration is traced to the any-cast that caused it.
func TestTraceExplainsCrashes(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.json")
	if _, errs, code := vb("faults", "-crash", "-servers", "64", "-duration", "30", "-lease", "4", "-drop-rates", "0,0.02",
		"-kill", "2", "-crash-forever", "1", "-restart-after", "5", "-seed", "5", "-workers", "1",
		"-trace", trace, "-sample-every", "1m"); code != 0 {
		t.Fatalf("vb faults: exit status %d\n%s", code, errs)
	}
	for _, c := range []struct {
		args string
		want string // multi-line regexp
	}{
		{"trace explain -crashes", `(?m)^crash node 2 at 10m0s\n  never restarted`},
		{"trace explain", `caused by anycast`},
		{"trace summary", `(?m)^events by kind:`},
		{"trace tail", `node`},
		{"trace series", `^t_ns,`},
	} {
		stdout, errs, code := vb(append(strings.Fields(c.args), trace)...)
		if code != 0 {
			t.Errorf("vb %s: exit status %d\n%s", c.args, code, errs)
		} else if !regexp.MustCompile(c.want).MatchString(stdout) {
			t.Errorf("vb %s: no match for %q in\n%s", c.args, c.want, stdout)
		}
	}
}

func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	os.WriteFile(a, []byte(`{"x": 1, "y": 2}`), 0o644)
	os.WriteFile(b, []byte(`{"x": 1, "y": 3}`), 0o644)
	for _, c := range []struct {
		args           string
		code           int
		stdout, stderr string // substrings
	}{
		{"", 2, "", "usage: vb <subcommand>"},
		{"nope", 2, "", "usage: vb <subcommand>"},
		{"sim -nope", 2, "", "flag provided but not defined"},
		{"sim -h", 0, "", "Usage of vb sim:"},
		{"trace", 2, "", "vb trace explain"},
		{"trace nope x.json", 2, "", "vb trace explain"},
		{"trace tail", 2, "", "vb trace explain"},
		{"trace tail " + filepath.Join(dir, "missing.json"), 1, "", "vb trace: open"},
		{"metrics diff " + a, 2, "", "vb metrics diff"},
		{"metrics diff " + a + " " + a, 0, "counters identical\n", ""},
		{"metrics diff " + a + " " + b, 1, "2 != 3", ""},
		{"metrics csv " + a, 1, "", "no metric series"},
		{"rebalance -fig 12", 1, "", "vb rebalance: unknown figure 12"},
		{"qos -fig 9", 1, "", "vb qos: unknown figure 9"},
		{"overhead -min-servers 600 -max-servers 1000", 1, "", "vb overhead: empty sweep"},
		{"faults -drop-rates 0,NaN", 1, "", `vb faults: bad drop rate "NaN"`},
		{"placement -trials 0", 1, "", "vb placement: -trials 0"},
	} {
		stdout, stderr, code := vb(strings.Fields(c.args)...)
		if code != c.code || !strings.Contains(stdout, c.stdout) || !strings.Contains(stderr, c.stderr) {
			t.Errorf("vb %s: exit status %d, stdout %q, stderr %q; want %d, %q, %q",
				c.args, code, stdout, stderr, c.code, c.stdout, c.stderr)
		}
	}
}

// TestBadConfigs: a value no run can mean is an error naming its flag or
// field, exit status 1, and never a hang or a panic. -hours under 8 ns looped
// forever in vb sim, -rate -1 held vb serve at one virtual instant,
// -max-batch -1 panicked in the front end's flush, vb overhead -fig 7 printed
// nothing and exited 0, and the rest ran.
func TestBadConfigs(t *testing.T) {
	for _, c := range []struct{ args, name string }{
		{"sim -hours 0", "-hours"},
		{"sim -hours 1e-12", "-hours"},
		{"serve -servers 64 -rate -1", "RatePerSec"},
		{"serve -servers 64 -batch -max-batch -1", "MaxBatch"},
		{"serve -servers 64 -max-inflight -1", "MaxInFlight"},
		{"serve -servers 64 -duration -1s", "Duration"},
		{"serve -servers 64 -prewarm -1", "Prewarm"},
		{"placement -servers -5", "-servers"},
		{"placement -vms -1", "VMsPerWavePerCustomer"},
		{"placement -waves -1", "Waves"},
		{"churn -hours -1", "Duration"},
		{"rebalance -vms-per-server -1", "VMsPerServer"},
		{"rebalance -duration -5", "Duration"},
		{"faults -crash -restart-after -1", "RestartAfter"},
		{"qos -hosts -1", "Hosts"},
		{"overhead -fig 1 -iterations -1", "Iterations"},
		{"overhead -fig 7", "unknown figure 7 (want 1, 14, 15 or 0)"},
		{"sim -threshold -1", "Rebalance.Threshold"},
		{"sim -customers -3", "-customers"},
		{"sim -vms -3", "-vms"},
	} {
		t.Run(c.args, func(t *testing.T) {
			type result struct {
				stderr   string
				code     int
				panicked any
			}
			done := make(chan result, 1)
			go func() {
				var r result
				defer func() {
					r.panicked = recover()
					done <- r
				}()
				_, r.stderr, r.code = vb(strings.Fields(c.args)...)
			}()
			select {
			case r := <-done:
				if r.panicked != nil {
					t.Fatalf("vb %s panicked: %v", c.args, r.panicked)
				}
				if r.code != 1 || !strings.Contains(r.stderr, c.name) {
					t.Errorf("vb %s: exit status %d, stderr %q; want 1 and an error naming %s", c.args, r.code, r.stderr, c.name)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("vb %s: still running after 10s", c.args)
			}
		})
	}
}

// traceFiles writes a small real trace with its sample series, and the
// counter dump of the same run.
func traceFiles(t testing.TB) (trace, counters string) {
	dir := t.TempDir()
	trace, counters = filepath.Join(dir, "trace.json"), filepath.Join(dir, "counters.json")
	if _, errs, code := vb("serve", "-servers", "64", "-rate", "5", "-duration", "2s", "-seed", "7",
		"-trace", trace, "-sample-every", "30s", "-counters", counters); code != 0 {
		t.Fatalf("vb serve: exit status %d\n%s", code, errs)
	}
	return trace, counters
}

// TestTraceRoundTrip reads one run's artifacts back through every reader.
// vb-metrics took any file starting with '{' for a counter dump and so
// refused every trace -trace wrote.
func TestTraceRoundTrip(t *testing.T) {
	trace, counters := traceFiles(t)
	out := func(args ...string) string {
		stdout, errs, code := vb(args...)
		if code != 0 || stdout == "" {
			t.Fatalf("vb %v: exit status %d, %d bytes of stdout\n%s", args, code, len(stdout), errs)
		}
		return stdout
	}
	if series := out("trace", "series", trace); series != out("metrics", "csv", trace) {
		t.Error("vb metrics csv and vb trace series print different series for one trace")
	}
	if sum := out("metrics", "summarize", trace); !strings.Contains(sum, "\nserve/placed ") || !strings.Contains(sum, " samples every 30s, ") {
		t.Errorf("summarize of a trace lacks its counters or its series:\n%s", sum)
	}
	out("metrics", "summarize", counters)
	out("metrics", "diff", trace, trace)
	out("trace", "summary", trace)
	out("trace", "tail", "-n", "5", trace)
	if _, errs, code := vb("trace", "explain", trace); code != 0 {
		t.Errorf("vb trace explain: exit status %d\n%s", code, errs)
	}
}

// FuzzTraceSubcommands feeds arbitrary bytes to every reader behind vb trace
// and vb metrics: a file that is not a trace is an error (exit status 1),
// never a panic. The seeds run with the ordinary tests; search with
//
//	go test ./cmd/vb -run '^$' -fuzz FuzzTraceSubcommands -fuzztime 60s -fuzzminimizetime 1s
//
// (the default minute of minimizing spends the whole search shrinking the
// first 47-KB input that reaches new code).
func FuzzTraceSubcommands(f *testing.F) {
	trace, counters := traceFiles(f)
	for _, path := range []string{trace, counters} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []int{len(data), len(data) - 2, len(data) / 2, len(data) / 7, 1} {
			f.Add(data[:n])
		}
	}
	readers := [][]string{
		{"trace", "explain"}, {"trace", "explain", "-crashes"}, {"trace", "summary"}, {"trace", "tail"},
		{"trace", "series"}, {"metrics", "summarize"}, {"metrics", "csv"},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, r := range readers {
			if _, errs, code := vb(append(slices.Clip(r), path)...); code != 0 && code != 1 {
				t.Errorf("vb %v: exit status %d\n%s", r, code, errs)
			}
		}
	})
}
