package main

import (
	"errors"
	"fmt"
	"time"

	"vbundle/internal/experiments"
)

// runServe runs the boot-query serving experiment: a sustained stream of
// boot and terminate requests from a mixed customer population is pushed
// through the serving front end into the live DHT placement engine, and
// placements/sec plus placement-latency percentiles are measured in virtual
// time. The run fails if any reservation leaked or any boot was left
// unresolved after the drain, so the exit status alone asserts
// serving-layer hygiene.
func runServe(e *env, args []string) error {
	var p experiments.ServeParams
	e.fs.Float64Var(&p.RatePerSec, "rate", 100, "boot request arrivals per second")
	e.fs.DurationVar(&p.Duration, "duration", 60*time.Second, "arrival window in virtual time")
	e.fs.Float64Var(&p.FlashMultiplier, "flash-mult", 0, "flash-crowd rate multiplier (0 or 1 = plain Poisson)")
	e.fs.DurationVar(&p.FlashStart, "flash-start", 0, "flash window start (default duration/3)")
	e.fs.DurationVar(&p.FlashLength, "flash-len", 0, "flash window length (default duration/6)")
	e.fs.Float64Var(&p.TerminateFraction, "terminate-frac", 0.9, "terminate rate as fraction of booted-VM rate (<0 disables)")
	e.fs.IntVar(&p.Prewarm, "prewarm", 0, "VMs booted per customer before the stream")
	e.fs.BoolVar(&p.Cache, "cache", false, "enable the customer->region resolution cache")
	e.fs.BoolVar(&p.Batch, "batch", false, "coalesce concurrent per-customer boots into batched queries")
	e.fs.IntVar(&p.MaxInFlight, "max-inflight", 0, "admission-control cap on unresolved boot VMs (0 = unlimited)")
	e.fs.IntVar(&p.MaxBatch, "max-batch", 0, "max VMs per coalesced query (0 = default)")
	e.fs.BoolVar(&p.Rebalance, "rebalance", false, "run the periodic rebalancer during the stream")
	e.fs.IntVar(&p.Shards, "shards", 0, "engine shards (0 = serial reference engine)")
	servers := e.fs.Int("servers", 512, "approximate server count")
	jsonOut := e.fs.String("json", "", "file to write the outcome as JSON")
	if err := e.parseRun(args, &p.Seed, &p.RunConfig); err != nil {
		return err
	}
	if err := errors.Join(notZero("-rate", p.RatePerSec == 0), notZero("-duration", p.Duration == 0),
		notZero("-terminate-frac", p.TerminateFraction == 0)); err != nil {
		return err
	}
	var err error
	if p.Spec, err = scaledSpec(*servers); err != nil {
		return err
	}
	out, err := experiments.RunServe(p)
	if err != nil {
		return err
	}
	out.Report(e.stdout)
	e.collect(out.Artifacts)
	if err := writeJSON(*jsonOut, out); err != nil {
		return err
	}
	if out.LeakedReservations != 0 || out.Unresolved != 0 {
		return fmt.Errorf("hygiene violation: %d leaked reservations, %d unresolved boots",
			out.LeakedReservations, out.Unresolved)
	}
	return nil
}
