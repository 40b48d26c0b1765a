package main

import (
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
	var (
		servers   = e.fs.Int("servers", 512, "approximate server count")
		rate      = e.fs.Float64("rate", 100, "boot request arrivals per second")
		duration  = e.fs.Duration("duration", 60*time.Second, "arrival window in virtual time")
		flashMult = e.fs.Float64("flash-mult", 0, "flash-crowd rate multiplier (0 or 1 = plain Poisson)")
		flashAt   = e.fs.Duration("flash-start", 0, "flash window start (default duration/3)")
		flashLen  = e.fs.Duration("flash-len", 0, "flash window length (default duration/6)")
		termFrac  = e.fs.Float64("terminate-frac", 0.9, "terminate rate as fraction of booted-VM rate (<0 disables)")
		prewarm   = e.fs.Int("prewarm", 0, "VMs booted per customer before the stream")
		cache     = e.fs.Bool("cache", false, "enable the customer->region resolution cache")
		batch     = e.fs.Bool("batch", false, "coalesce concurrent per-customer boots into batched queries")
		maxInFl   = e.fs.Int("max-inflight", 0, "admission-control cap on unresolved boot VMs (0 = unlimited)")
		maxBatch  = e.fs.Int("max-batch", 0, "max VMs per coalesced query (0 = default)")
		rebal     = e.fs.Bool("rebalance", false, "run the periodic rebalancer during the stream")
		shards    = e.fs.Int("shards", 0, "engine shards (0 = serial reference engine)")
		jsonOut   = e.fs.String("json", "", "file to write the outcome as JSON")
	)
	if err := e.parse(args); err != nil {
		return err
	}
	out, err := experiments.RunServe(experiments.ServeParams{
		Spec:              experiments.ScaledSpec(*servers),
		RatePerSec:        *rate,
		Duration:          *duration,
		FlashMultiplier:   *flashMult,
		FlashStart:        *flashAt,
		FlashLength:       *flashLen,
		TerminateFraction: *termFrac,
		Prewarm:           *prewarm,
		Cache:             *cache,
		Batch:             *batch,
		MaxInFlight:       *maxInFl,
		MaxBatch:          *maxBatch,
		Rebalance:         *rebal,
		Seed:              e.seed,
		Shards:            *shards,
		Obs:               e.obs.Config(),
		Audit:             e.audit.Config(),
	})
	if err != nil {
		return err
	}
	out.Report(e.stdout)
	e.collect(out.Trace, out.Audit)
	if err := writeJSON(*jsonOut, out); err != nil {
		return err
	}
	if out.LeakedReservations != 0 || out.Unresolved != 0 {
		return fmt.Errorf("hygiene violation: %d leaked reservations, %d unresolved boots",
			out.LeakedReservations, out.Unresolved)
	}
	return nil
}
