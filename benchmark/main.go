// Command benchmark is the repo's benchmark: five workloads, end-to-end and
// per-layer metrics, an untraced and a traced run. See README.md.
//
//	go run . -workload ladder [-seed 1] [-seconds 26] [-trace 1] [-out f.json]
//	go run . -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
)

// runSeconds is the measured time of one run: the default of -seconds and
// the run_seconds of BENCHMARK.json.
const runSeconds = 26

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var opt options
	var trace int
	var out string
	var doCompare bool
	fs.StringVar(&opt.workload, "workload", "", "workload to run: ladder, serve_hot, boot_routed, rebalance or crash_recover")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of the benchmark's input generators (2 is held back for later claims)")
	fs.Float64Var(&opt.seconds, "seconds", runSeconds, "seconds the measured iterations may take")
	fs.IntVar(&trace, "trace", 0, "1 repeats the run with spans, runtime sampling and the flight recorder and prints the per-layer metrics")
	fs.StringVar(&out, "out", "", "write the full result as JSON to this file")
	fs.StringVar(&opt.outDir, "outdir", "out", "directory for <workload>.spans.json after a traced run")
	fs.BoolVar(&doCompare, "compare", false, "compare two results (files or directories): -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if doCompare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files or directories")
		}
		nWorse, _, err := compare(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return err
		}
		if nWorse > 0 {
			return fmt.Errorf("%d (metric, workload) pairs are worse", nWorse)
		}
		return nil
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	if opt.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	opt.trace = trace == 1
	res, err := runBenchmark(opt)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if out != "" {
		if err := res.writeJSON(out); err != nil {
			return err
		}
	}
	line, err := res.contractLine()
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}
