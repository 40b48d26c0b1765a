package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"

	"vbundle/internal/obs"
)

const traceUsage = `usage:
  vb trace explain [-vm N] [-max N] trace.json            causal chain per migration
  vb trace explain -crashes [-node N] [-max N] trace.json crash→restart→rejoin chains
  vb trace summary trace.json                             event totals, span latency, counters
  vb trace tail [-n N] trace.json                         last N events (crash-dump view)
  vb trace series trace.json                              virtual-time metric samples as CSV`

// runTrace analyzes flight-recorder traces written with -trace. It
// reconstructs causal chains — which anycast walk discovered the receiver of
// a migration, which lease protected it, how long each stage took — and
// summarizes per-subsystem latency, directly from the Chrome trace_event
// JSON (the same file Perfetto loads).
func runTrace(e *env, args []string) error {
	if len(args) == 0 {
		return e.usage(traceUsage)
	}
	e.fs.Init("vb trace "+args[0], flag.ContinueOnError)
	var show func(ix *obs.Index, counters map[string]int64, ser *obs.Series) error
	switch args[0] {
	case "explain":
		vm := e.fs.Int64("vm", -1, "explain only this VM id (-1 = all)")
		limit := e.fs.Int("max", 10, "chains to explain at most (0 = unlimited)")
		crashes := e.fs.Bool("crashes", false, "explain crash→restart→rejoin chains instead of migrations")
		node := e.fs.Int64("node", -1, "with -crashes: explain only this node (-1 = all)")
		show = func(ix *obs.Index, _ map[string]int64, _ *obs.Series) error {
			if *crashes {
				ix.ExplainCrashes(e.stdout, *node, *limit)
			} else {
				ix.ExplainMigrations(e.stdout, *vm, *limit)
			}
			return nil
		}
	case "summary":
		show = func(ix *obs.Index, counters map[string]int64, _ *obs.Series) error {
			ix.Summary(e.stdout, counters)
			return nil
		}
	case "tail":
		n := e.fs.Int("n", 50, "events to print")
		show = func(ix *obs.Index, _ map[string]int64, _ *obs.Series) error {
			ix.Tail(e.stdout, *n)
			return nil
		}
	case "series":
		show = func(_ *obs.Index, _ map[string]int64, ser *obs.Series) error { return e.writeSeries(ser) }
	default:
		return e.usage(traceUsage)
	}
	files, err := e.files(args[1:], 1, traceUsage)
	if err != nil {
		return err
	}
	events, counters, ser, err := readTrace(files[0], false)
	if err != nil {
		return err
	}
	return show(obs.NewIndex(events), counters, ser)
}

const metricsUsage = `usage:
  vb metrics summarize trace.json   final counters + series shape
  vb metrics diff a.json b.json     counter diff, exit status 1 when any differ
  vb metrics csv trace.json         sample series as CSV
summarize and diff also take bare -counters dumps in place of trace files`

// runMetrics works on the metrics half of flight-recorder traces: the
// end-of-run counter snapshot (with the histograms' derived percentile keys)
// and the virtual-time sample series recorded with -sample-every. diff is
// the scriptable form of the determinism claims the repo makes: two runs
// that must agree (serial vs sharded, audit on vs off) diff empty.
func runMetrics(e *env, args []string) error {
	want := map[string]int{"summarize": 1, "diff": 2, "csv": 1}
	if len(args) == 0 || want[args[0]] == 0 {
		return e.usage(metricsUsage)
	}
	e.fs.Init("vb metrics "+args[0], flag.ContinueOnError)
	files, err := e.files(args[1:], want[args[0]], metricsUsage)
	if err != nil {
		return err
	}
	_, counters, ser, err := readTrace(files[0], true)
	if err != nil {
		return err
	}
	switch args[0] {
	case "csv":
		return e.writeSeries(ser)
	case "diff":
		_, other, _, err := readTrace(files[1], true)
		if err != nil {
			return err
		}
		if diffCounters(e, counters, other, files[0], files[1]) > 0 {
			return status(1)
		}
		e.printf("counters identical\n")
	default:
		summarize(e, counters, ser)
	}
	return nil
}

// files parses the flags and returns the n file operands behind them.
func (e *env) files(args []string, n int, usage string) ([]string, error) {
	if err := e.parse(args); err != nil {
		return nil, err
	}
	if e.fs.NArg() != n {
		return nil, e.usage(usage)
	}
	return e.fs.Args(), nil
}

// readTrace reads a Chrome trace (-trace output: events, the final counter
// snapshot and the sample series) or, where dumpOK, a bare -counters dump
// (an object of name → value: counters alone).
func readTrace(path string, dumpOK bool) ([]obs.Event, map[string]int64, *obs.Series, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	if dumpOK {
		// A trace is an object too, but its members are arrays and objects:
		// only a dump decodes as name → integer.
		var counters map[string]int64
		if json.Unmarshal(data, &counters) == nil && counters != nil {
			return nil, counters, nil, nil
		}
	}
	events, counters, ser, err := obs.ReadChromeSeries(bytes.NewReader(data))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if dumpOK && len(counters) == 0 && ser.Len() == 0 {
		return nil, nil, nil, fmt.Errorf("%s: no counters or sample series (produce it with -trace -sample-every, or point at a -counters dump)", path)
	}
	return events, counters, ser, nil
}

func (e *env) writeSeries(ser *obs.Series) error {
	if ser.Len() == 0 {
		return errors.New("trace carries no metric series (run the producer with -sample-every)")
	}
	return ser.WriteCSV(e.stdout)
}

func summarize(e *env, counters map[string]int64, ser *obs.Series) {
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e.printf("%-40s %d\n", name, counters[name])
	}
	if ser.Len() == 0 {
		return
	}
	e.printf("\nseries: %d samples every %v, %d metrics\n", ser.Len(), ser.Every(), len(ser.Names()))
	e.printf("%-40s %-12s %-12s %-12s %s\n", "metric", "first", "last", "min", "max")
	for _, name := range ser.Names() {
		col := ser.Col(name)
		e.printf("%-40s %-12d %-12d %-12d %d\n", name, col[0], col[len(col)-1], slices.Min(col), slices.Max(col))
	}
}

// diffCounters prints every counter whose value differs between the two
// snapshots (or exists in only one) and returns how many differ.
func diffCounters(e *env, a, b map[string]int64, aPath, bPath string) int {
	names := make([]string, 0, len(a)+len(b))
	for name := range a {
		names = append(names, name)
	}
	for name := range b {
		if _, both := a[name]; !both {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	n := 0
	for _, name := range names {
		av, aok := a[name]
		bv, bok := b[name]
		if aok && bok && av == bv {
			continue
		}
		n++
		switch {
		case !aok:
			e.printf("%-40s only in %s: %d\n", name, bPath, bv)
		case !bok:
			e.printf("%-40s only in %s: %d\n", name, aPath, av)
		default:
			e.printf("%-40s %d != %d\n", name, av, bv)
		}
	}
	return n
}
