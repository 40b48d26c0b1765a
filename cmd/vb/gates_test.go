package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// gate is one row of the CI table: a vb command line whose stdout is pinned.
//
// The goldens under testdata/ were printed by the cmd/vb-* binaries of
// the commit before they were folded into vb (see CHANGES.md, PR 22), so a
// passing row says "this tree prints what that tree printed", not "this tree
// agrees with itself". A golden changes only in a PR that means to move a
// modelled value, by running that row's command line and checking in the
// bytes.
type gate struct {
	name string
	// args is the base command line. "$TMP/x" names a file in a fresh
	// directory; every such file must be non-empty once the run is over.
	args string
	// variants are extra flags, each appended to args in a run of its own,
	// with $TMP a fresh directory, that must print the base run's stdout to
	// the byte, and write each file the base run wrote in $TMP byte for byte
	// or not at all: observers (auditor, recorder, sampler) watch the
	// simulation and never take part in it, and shard and worker counts
	// change the schedule on the host, not one event in virtual time. A later
	// flag overrides an earlier one, so a row whose args turn an observer on
	// can turn it off again here.
	variants []string
	// golden: the base run must print testdata/<name>.golden.
	golden bool
	// stdout and stderr must each match the base run's stream (multi-line
	// mode: ^ and $ are line ends).
	stdout, stderr []string
	// long rows are skipped under -short (the -race pass).
	long bool
	// timed rows log the wall time of the base run against the first
	// variant's, min of five interleaved runs a side. Advisory only: the box
	// this runs on drifts by more than any observer costs, so nothing is
	// asserted on it. What an observer may cost is gated where it can be
	// counted, in internal/obs (TestRingRecorderCostPerEvent).
	timed bool
}

const (
	serve512  = "serve -servers 512 -rate 100 -duration 20s -prewarm 2 -cache -batch -seed 7"
	auditLine = `^audit: sweeps=[1-9][0-9]* violations=0$`
	noLeak    = `^leaked reservations: 0$`
	noOrphan  = `^unresolved boots: 0$`
)

var gates = []gate{
	// Fig 14's ladder across shard counts: a lost event, a reordered merge or
	// a stray rand draw diverges here. 2048 servers at 8 shards stretches the
	// dynamically-sized drain windows furthest. -shards 1 is the base run's
	// engine itself, so no row repeats it as a variant. -workers 0 runs the
	// sweep's sizes concurrently, each on a stack of its own.
	{name: "fig14-512", args: "overhead -fig 14 -max-servers 512 -workers 1", golden: true,
		variants: []string{"-shards 4"}},
	{name: "fig14-2048", args: "overhead -fig 14 -max-servers 2048 -workers 1", golden: true,
		variants: []string{"-shards 2", "-shards 4", "-shards 8", "-workers 0"}},
	// The smallest of the big rungs, one point via -min-servers: ≈ 17 s and
	// ≈ 1.5 GB for the pair.
	{name: "fig14-524288", args: "overhead -fig 14 -min-servers 524288 -max-servers 524288 -shards 1 -workers 1", golden: true,
		variants: []string{"-shards 4"}, long: true},
	// -memprofile must leave a non-empty pprof while the arena-backed ring
	// builds and runs: catches profiling-path rot.
	{name: "fig14-32768-heap-profile", args: "overhead -fig 14 -max-servers 32768 -shards 4 -workers 1 -memprofile $TMP/heap.pprof", golden: true,
		long: true},
	// The auditor sweeps a real run, finds nothing, reports to stderr only.
	{name: "fig14-512-audit", args: "overhead -fig 14 -min-servers 512 -max-servers 512 -workers 1 -audit -audit-every 10ms", golden: true,
		variants: []string{"-audit=false"}, stderr: []string{auditLine}},
	{name: "fig14-8192-ring-recorder", args: "overhead -fig 14 -min-servers 8192 -max-servers 8192 -workers 1", golden: true,
		variants: []string{"-trace-ring 4096"}, timed: true},
	{name: "fig15", args: "overhead -fig 15 -workers 1", golden: true,
		variants: []string{"-shards 4", "-workers 0"}},
	// Table I prints host timings: it has to run, not to repeat.
	{name: "table1", args: "overhead -fig 1 -max-servers 512 -iterations 100",
		stdout: []string{`^== Table I: `, `^aggregation update `}},

	// The shuffling loop end to end — aggregation rounds, any-cast, leases,
	// migrations, the per-minute shaper accounting behind Fig 11 — serial
	// and sharded. fig9-256 records and samples the run, and its golden was
	// printed with neither: the recorded trace and its series must not move
	// with shards or workers, and the recorder off, a ring recorder that
	// evicts, the sampler alone and the auditor must not move stdout. Fig
	// 10's ten rounds of pushes cross shards: recycled shells are banked on
	// the receiving shard's list.
	{name: "fig9-256", args: "rebalance -fig 9 -servers 256 -trace $TMP/t.json -sample-every 2m", golden: true,
		variants: []string{"-shards 4", "-workers 1", "-trace=", "-trace= -trace-ring 256", "-trace= -audit -audit-every 30s"}},
	{name: "fig10-256", args: "rebalance -fig 10 -servers 256", golden: true,
		variants: []string{"-shards 4"}},
	{name: "fig11-256", args: "rebalance -fig 11 -servers 256", golden: true,
		variants: []string{"-shards 4"}},

	// One small fault sweep, then the same with true crashes (blank handler,
	// durable-store reboot, rejoin) and one node left dead: vb exits nonzero
	// if a run leaks a reservation or loses a VM across the restart. The
	// crash sweep is recorded and sampled as fig9-256 is: crash, rejoin and
	// reconcile run at global instants, so its trace must not move with
	// shards either.
	{name: "faults-64", args: "faults -servers 64 -duration 30 -lease 4 -drop-rates 0,0.02 -seed 5", golden: true,
		variants: []string{"-workers 1", "-shards 4"}, stdout: []string{`^no reservations leaked at quiesce in any run$`}},
	{name: "faults-64-crash", args: "faults -crash -servers 64 -duration 30 -lease 4 -drop-rates 0,0.02 -kill 2 -crash-forever 1 -restart-after 5 -seed 5 -workers 1 -trace $TMP/t.json -sample-every 2m", golden: true,
		variants: []string{"-shards 4", "-trace=", "-trace= -trace-ring 4096"}, stdout: []string{`recovered fully`}},
	// The same two with -v: the per-run reports, which the sweep tables above
	// do not show, printed by the parent of PR 23 before the pause and crash
	// experiments were merged into one.
	{name: "faults-64-v", args: "faults -servers 64 -duration 30 -lease 4 -drop-rates 0,0.02 -seed 5 -v", golden: true},
	{name: "faults-64-crash-v", args: "faults -crash -servers 64 -duration 30 -lease 4 -drop-rates 0,0.02 -kill 2 -crash-forever 1 -restart-after 5 -seed 5 -workers 1 -v", golden: true,
		variants: []string{"-shards 4"}},
	// The crash line at 2048 servers, printed by the tree before the
	// row existed.
	{name: "faults-2048-crash", args: "faults -crash -servers 2048 -duration 30 -lease 4 -drop-rates 0,0.02 -kill 2 -crash-forever 1 -restart-after 5 -seed 5 -workers 1", golden: true,
		variants: []string{"-shards 4"}, stdout: []string{`recovered fully`}, long: true},

	// The serving path: a Poisson stream and a flash crowd. vb exits nonzero
	// on a leaked reservation or an unresolved boot; the hygiene lines are
	// matched as well so a change to the exit status cannot weaken the row.
	{name: "serve-512", args: serve512, golden: true,
		variants: []string{"-shards 4", "-trace-ring 4096"}, stdout: []string{noLeak, noOrphan}},
	// The same stream with the cache off, printed by the parent of the PR that
	// made the spill walk resumable: what the walk memo rides on the cache
	// gate for. With the gate off nothing of the walk may move.
	{name: "serve-512-routed", args: "serve -servers 512 -rate 100 -duration 20s -prewarm 2 -batch -seed 7", golden: true,
		variants: []string{"-shards 4"}, stdout: []string{noLeak, noOrphan}},
	{name: "serve-512-flash", args: "serve -servers 512 -rate 100 -duration 20s -prewarm 2 -cache -batch -flash-mult 10 -flash-start 6s -flash-len 5s -max-inflight 64 -seed 7", golden: true,
		variants: []string{"-shards 4"}, stdout: []string{`flash window: requests=[0-9]* shed=[1-9]`, noLeak, noOrphan}},
	{name: "serve-512-audit", args: serve512 + " -audit", golden: true,
		variants: []string{"-audit=false"}, stderr: []string{auditLine}},
	// Rate 200: long enough a run for a 1 s sampling cadence to show.
	{name: "serve-512-sampler", args: "serve -servers 512 -rate 200 -duration 20s -prewarm 2 -cache -batch -seed 7", golden: true,
		variants: []string{"-sample-every 1s"}, timed: true},

	// README's reproduction table, at sizes that run in milliseconds.
	{name: "placement", args: "placement", golden: true,
		variants: []string{"-shards 4"}},
	{name: "placement-fig8b", args: "placement -waves 2 -engine greedy", golden: true},
	// -dots prints the last wave's raw scatter points; the golden was
	// printed by the tree before the row existed.
	{name: "placement-dots", args: "placement -servers 100 -vms 10 -dots", golden: true},
	// Three seeds fanned out, printed in seed order at any worker count; the
	// golden was printed by the tree whose experiments package ran the trials.
	{name: "placement-trials", args: "placement -trials 3", golden: true,
		variants: []string{"-workers 1"}},
	{name: "qos", args: "qos", golden: true},
	{name: "churn-100", args: "churn -servers 100 -hours 1", golden: true},
	// A Step-driven run (core.BootVM steps each boot to its answer) with
	// work started between the steps, on whichever shard owns the node.
	{name: "sim-100", args: "sim -servers 100 -hours 1", golden: true,
		variants: []string{"-shards 4"}},
	// The four extension flags together. The sim workload loads bandwidth
	// alone and DHT placement leaves the veto nothing to refuse, so random
	// placement is what makes the cost-benefit check fire. The golden was
	// printed by the tree before the row existed.
	{name: "sim-100-extensions", args: "sim -servers 100 -hours 1 -engine random -same-customer -multi-resource -cost-benefit", golden: true},
}

// vb runs one command line in-process.
func vb(args ...string) (stdout, stderr string, code int) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return out.String(), errs.String(), code
}

func TestGates(t *testing.T) {
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			if g.long && testing.Short() {
				t.Skip("long row; run without -short")
			}
			// runIn runs args with $TMP a fresh directory, which it returns.
			runIn := func(args string) (stdout, stderr, tmp string) {
				tmp = t.TempDir()
				stdout, stderr, code := vb(strings.Fields(strings.ReplaceAll(args, "$TMP", tmp))...)
				if code != 0 {
					t.Fatalf("vb %s: exit status %d\n%s", args, code, stderr)
				}
				return stdout, stderr, tmp
			}
			base, errs, tmp := runIn(g.args)
			if g.golden {
				want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if base != string(want) {
					t.Errorf("vb %s: stdout differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", g.args, g.name, base, want)
				}
			}
			match := func(stream string, patterns []string) {
				for _, p := range patterns {
					if !regexp.MustCompile("(?m)" + p).MatchString(stream) {
						t.Errorf("vb %s: no match for %q in\n%s", g.args, p, stream)
					}
				}
			}
			match(base, g.stdout)
			match(errs, g.stderr)
			files, err := os.ReadDir(tmp)
			if err != nil {
				t.Fatal(err)
			}
			if want := strings.Count(g.args, "$TMP"); len(files) != want {
				t.Errorf("vb %s: left %d files in $TMP, want %d", g.args, len(files), want)
			}
			for _, f := range files {
				if info, err := f.Info(); err != nil || info.Size() == 0 {
					t.Errorf("vb %s: %s is empty (%v)", g.args, f.Name(), err)
				}
			}
			for _, v := range g.variants {
				got, _, vtmp := runIn(g.args + " " + v)
				if got != base {
					t.Errorf("vb %s: stdout changes with %s\nwithout:\n%s\nwith:\n%s", g.args, v, base, got)
				}
				written, err := os.ReadDir(vtmp)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range written {
					want, err := os.ReadFile(filepath.Join(tmp, f.Name()))
					if got, gerr := os.ReadFile(filepath.Join(vtmp, f.Name())); err != nil || gerr != nil || !bytes.Equal(got, want) {
						t.Errorf("vb %s: $TMP/%s changes with %s (%v, %v)", g.args, f.Name(), v, err, gerr)
					}
				}
			}
			if g.timed && !testing.Short() {
				args := strings.Fields(strings.ReplaceAll(g.args, "$TMP", tmp))
				with := slices.Concat(args, strings.Fields(g.variants[0]))
				minOff, minOn := time.Duration(1<<62), time.Duration(1<<62)
				for i := 0; i < 5; i++ {
					start := time.Now()
					vb(args...)
					mid := time.Now()
					vb(with...)
					minOff, minOn = min(minOff, mid.Sub(start)), min(minOn, time.Since(mid))
				}
				t.Logf("advisory, no threshold: %v without %s, %v with (%+.1f%%)", minOff, g.variants[0], minOn,
					100*float64(minOn-minOff)/float64(minOff))
			}
		})
	}
}
