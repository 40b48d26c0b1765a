package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"vbundle/internal/experiments"
)

// runFaults runs the Fig. 9 rebalancing scenario under injected faults: a
// sweep of message-loss rates with receivers crashed mid-run for good. For
// each loss rate it reports the convergence (settling) time of the
// utilization standard deviation and the number of receiver-side
// reservations still held once the protocol stops and every lease has had
// time to expire — the leak counter, which must read zero.
//
// With -crash the victims reboot: each victim's handler and all its soft
// state are gone, and the node comes back -restart-after minutes later from
// its durable store, rejoining the live ring. The sweep then
// gates on full recovery — no VM lost, no reservation leaked across the
// restart — and fails if any run misses it.
func runFaults(e *env, args []string) error {
	var p experiments.FaultParams
	e.fs.IntVar(&p.VMsPerServer, "vms-per-server", 10, "VMs per server")
	e.fs.Float64Var(&p.Threshold, "threshold", 0.183, "rebalancing threshold")
	e.fs.IntVar(&p.Victims, "kill", 1, "receivers to kill mid-run")
	e.fs.IntVar(&p.Shards, "shards", 0, "engine shards per run (0 = serial reference engine)")
	e.fs.BoolVar(&p.Crash, "crash", false, "reboot crashed receivers from their durable store instead of leaving them down")
	e.fs.IntVar(&p.CrashForever, "crash-forever", 0, "additional receivers crashed with no restart at all")
	var (
		servers      = e.fs.Int("servers", 300, "approximate server count")
		duration     = e.fs.Int("duration", 75, "virtual experiment length in minutes")
		lease        = e.fs.Int("lease", 10, "reservation lease duration in minutes")
		rates        = e.fs.String("drop-rates", "0,0.01,0.02,0.05", "comma-separated message loss probabilities")
		killAt       = e.fs.Int("kill-at", 0, "kill time in minutes (0 = duration/3)")
		restartAfter = e.fs.Int("restart-after", 0, "crash downtime in minutes before the reboot (0 = 2x update interval)")
		workers      = e.fs.Int("workers", 0, "concurrent sweep variants (0 = all cores, 1 = sequential)")
		verbose      = e.fs.Bool("v", false, "print the full per-run report, not just the sweep table")
	)
	if err := e.parseRun(args, &p.Seed, &p.RunConfig); err != nil {
		return err
	}
	if err := errors.Join(notZero("-lease", *lease == 0), notZero("-duration", *duration == 0),
		notZero("-vms-per-server", p.VMsPerServer == 0)); err != nil {
		return err
	}
	drops, err := parseRates(*rates)
	if err != nil {
		return err
	}
	if p.Spec, err = scaledSpec(*servers); err != nil {
		return err
	}
	minutes := func(n int) time.Duration { return time.Duration(n) * time.Minute }
	p.Duration, p.LeaseDuration, p.At, p.RestartAfter = minutes(*duration), minutes(*lease), minutes(*killAt), minutes(*restartAfter)
	variants := make([]experiments.FaultParams, len(drops))
	for i, d := range drops {
		variants[i] = p
		variants[i].DropRate = d
	}
	outs, err := fanOut(variants, *workers, experiments.RunFaults)
	if err != nil {
		return err
	}
	// The written trace is the last sweep variant's (the highest loss rate,
	// where recoveries are most interesting).
	leaked, failed := 0, 0
	for _, out := range outs {
		if *verbose {
			out.Write(e.stdout)
		}
		e.collect(out.Artifacts)
		leaked += out.Leaked
		if p.Crash && !out.GatePassed() {
			failed++
			fmt.Fprintf(e.stderr, "vb faults: gate FAILED at %.1f%% loss: lost VMs=%d, lost placements=%d, leaked=%d\n",
				out.Params.DropRate*100, out.LostVMs, out.Recovery.LostPlacements, out.Leaked)
		}
	}
	experiments.WriteFaultTable(e.stdout, outs)
	switch {
	case failed != 0:
		return fmt.Errorf("%d of %d crash-restart runs failed the recovery gate", failed, len(outs))
	case p.Crash:
		e.printf("every crash-restart run recovered fully: no VM lost, no reservation leaked\n")
	case leaked != 0:
		return fmt.Errorf("%d reservations leaked across the sweep", leaked)
	default:
		e.printf("no reservations leaked at quiesce in any run\n")
	}
	return nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || !(v >= 0 && v < 1) { // the negation also refuses NaN
			return nil, fmt.Errorf("bad drop rate %q (want 0 <= rate < 1)", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no drop rates in %q", s)
	}
	return out, nil
}
