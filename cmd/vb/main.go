// Command vb regenerates the paper's evaluation and drives the extension
// experiments, one subcommand per experiment family:
//
//	vb placement   Fig. 7, 8a, 8b (VM/PM mapping, second wave, greedy baseline)
//	vb rebalance   Fig. 9, 10, 11 (resource shuffling)
//	vb qos         Fig. 12, 13 (SIPp failed calls and response-time CDF)
//	vb overhead    Table I, Fig. 14, 15 (pub-sub cost, aggregation latency, messages)
//	vb churn       locality under hours of VM arrivals and departures
//	vb faults      Fig. 9 under message loss, kills and (-crash) true crash-restarts
//	vb serve       boot/terminate request stream through the serving front end
//	vb sim         free-form simulation over the knobs the paper does not sweep
//	vb trace       causal chains, summaries and series from a -trace recording
//	vb metrics     counter snapshots and series: summarize, diff, csv
//
// `vb <subcommand> -h` lists a subcommand's flags. Every simulating
// subcommand shares -seed, the profiling flags (-cpuprofile, -memprofile),
// the flight-recorder flags (-trace, -trace-ring, -counters, -sample-every)
// and the auditor flags (-audit, -audit-every). Figures go to stdout;
// errors, auditor reports and usage go to stderr. Exit status: 0 ok, 1 a
// failed run (an error, an invariant violated, a reservation leaked, a boot
// left unresolved), 2 usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vbundle/internal/audit"
	"vbundle/internal/core"
	"vbundle/internal/experiments"
	"vbundle/internal/obs"
	"vbundle/internal/parallel"
	"vbundle/internal/profiling"
	"vbundle/internal/report"
	"vbundle/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// commands is the registration table. A simulating subcommand gets the
// shared flags; trace and metrics only read files and take none of them.
var commands = []struct {
	name     string
	run      func(e *env, args []string) error
	simulate bool
}{
	{"sim", runSim, true},
	{"placement", runPlacement, true},
	{"churn", runChurn, true},
	{"rebalance", runRebalance, true},
	{"qos", runQoS, true},
	{"overhead", runOverhead, true},
	{"faults", runFaults, true},
	{"serve", runServe, true},
	{"trace", runTrace, false},
	{"metrics", runMetrics, false},
}

// run executes one vb command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				e := newEnv(c.name, c.simulate, stdout, stderr)
				return e.finish(c.run(e, args[1:]))
			}
		}
	}
	fmt.Fprint(stderr, "usage: vb <subcommand> [flags]\nsubcommands:")
	for _, c := range commands {
		fmt.Fprint(stderr, " ", c.name)
	}
	fmt.Fprintln(stderr, "\n`vb <subcommand> -h` lists a subcommand's flags")
	return 2
}

// env is what every subcommand runs in: its flag set, its two output
// streams, and the run-end artifacts (trace, auditors, profiles) the one
// epilogue in finish delivers however the subcommand left.
type env struct {
	name           string
	fs             *flag.FlagSet
	stdout, stderr io.Writer

	seed  int64
	prof  profiling.Config
	obs   obs.Flags
	audit audit.Flags

	stopProf func()
	// trace is written at exit as -trace / -counters ask; sweeps leave their
	// last run's here.
	trace *obs.Trace
	// audits are reported to stderr at exit, in the order the runs were made.
	audits []*audit.Auditor
}

func newEnv(name string, simulate bool, stdout, stderr io.Writer) *env {
	e := &env{name: name, stdout: stdout, stderr: stderr}
	e.fs = flag.NewFlagSet("vb "+name, flag.ContinueOnError)
	e.fs.SetOutput(stderr)
	if simulate {
		e.fs.Int64Var(&e.seed, "seed", 1, "random seed")
		e.prof.AddFlags(e.fs)
		e.obs.AddFlags(e.fs)
		e.audit.AddFlags(e.fs)
	}
	return e
}

// status is an outcome that has been reported already (by the flag package,
// by a usage text, by the diff on stdout): only the exit status remains.
type status int

func (s status) Error() string { return fmt.Sprintf("exit status %d", int(s)) }

// parse parses the subcommand's flags and starts profiling.
func (e *env) parse(args []string) error {
	if err := e.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return status(0)
		}
		return status(2)
	}
	stop, err := e.prof.Start()
	e.stopProf = stop
	return err
}

// usage prints text to stderr and returns the usage status.
func (e *env) usage(text string) error {
	fmt.Fprintln(e.stderr, text)
	return status(2)
}

// parseRun is parse for a subcommand that runs an experiment: it hands
// -seed to seed and the observer flags to rc.
func (e *env) parseRun(args []string, seed *int64, rc *experiments.RunConfig) error {
	if err := e.parse(args); err != nil {
		return err
	}
	*seed, rc.Obs, rc.Audit = e.seed, e.obs.Config(), e.audit.Config()
	return nil
}

// collect keeps one run's trace and auditor for the epilogue.
func (e *env) collect(a experiments.Artifacts) {
	if a.Trace != nil {
		e.trace = a.Trace
	}
	e.audits = append(e.audits, a.Audit)
}

// finish is the epilogue of every subcommand, reached on every path: write
// the trace, report the auditors, flush the profiles, and map the outcome
// to the exit status.
func (e *env) finish(err error) int {
	if werr := e.obs.Write(e.trace); err == nil {
		err = werr
	}
	code := 0
	for _, a := range e.audits {
		a.Report(e.stderr)
		if a.Violations() > 0 {
			code = 1
		}
	}
	if e.stopProf != nil {
		e.stopProf()
	}
	var s status
	switch {
	case errors.As(err, &s):
		code = max(code, int(s))
	case err != nil:
		fmt.Fprintf(e.stderr, "vb %s: %v\n", e.name, err)
		code = 1
	}
	return code
}

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.stdout, format, args...) }

func (e *env) writeSVGs(dir string, charts map[string]*report.Chart) error {
	if dir == "" || len(charts) == 0 {
		return nil
	}
	if err := experiments.WriteSVGs(dir, charts); err != nil {
		return err
	}
	e.printf("wrote SVG figures to %s\n", dir)
	return nil
}

func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	return experiments.WriteJSON(path, v)
}

func parseEngine(name string) (core.EngineKind, error) {
	switch name {
	case "dht":
		return core.EngineDHT, nil
	case "greedy":
		return core.EngineGreedy, nil
	case "random":
		return core.EngineRandom, nil
	}
	return 0, fmt.Errorf("unknown engine %q", name)
}

// scaledSpec is the datacenter of -servers n.
func scaledSpec(n int) (topology.Spec, error) {
	if n < 1 {
		return topology.Spec{}, fmt.Errorf("-servers %d: want at least 1", n)
	}
	return experiments.ScaledSpec(n), nil
}

// notZero is the error of a flag whose value reaches its …Params field as 0,
// which the experiment would read as "run the default": vb runs what its
// command line says or nothing.
func notZero(flag string, zero bool) error {
	if !zero {
		return nil
	}
	return fmt.Errorf("%s: want a positive value (0 would run the default)", flag)
}

// trials is p once per trial of a -trials sweep, the i-th at p's seed + i;
// seed is where a P keeps its seed.
func trials[P any](p P, n int, seed func(*P) *int64) ([]P, error) {
	if n < 1 {
		return nil, fmt.Errorf("-trials %d: want at least 1", n)
	}
	ps := make([]P, n)
	for i := range ps {
		ps[i] = p
		*seed(&ps[i]) += int64(i)
	}
	return ps, nil
}

// fanOut runs each of ps across workers goroutines (0 = all cores, 1 =
// sequential). Every run owns its stack, so each outcome, in ps order, is
// the one a run of its own gives.
func fanOut[P, O any](ps []P, workers int, run func(P) (O, error)) ([]O, error) {
	return parallel.Map(len(ps), workers, func(i int) (O, error) { return run(ps[i]) })
}
