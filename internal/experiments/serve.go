package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"vbundle/internal/core"
	"vbundle/internal/placement"
	"vbundle/internal/serve"
	"vbundle/internal/topology"
	"vbundle/internal/workload"
)

// ServeParams configures the boot-query serving experiment: a sustained
// stream of boot and terminate requests from a mixed customer population,
// pushed through the serving front end into the live DHT engine, with
// placements/sec and placement-latency percentiles measured in virtual
// time. This is the serving-side counterpart of the bulk provisioning waves
// of Fig. 7 — what the front end of a cloud with millions of users does all
// day.
type ServeParams struct {
	// Spec is the datacenter; defaults to ScaledSpec(512).
	Spec topology.Spec
	// Mix is the customer population; defaults to a few large customers
	// booting in groups plus a tail of small singletons.
	Mix []workload.CustomerClass
	// RatePerSec is the boot-request arrival rate (requests, not VMs; each
	// request boots its customer class's group size). Defaults to 100.
	RatePerSec float64
	// FlashMultiplier > 1 turns the stream into a flash crowd: the rate is
	// multiplied inside [FlashStart, FlashStart+FlashLength), measured from
	// stream start. 0 or 1 keeps a plain Poisson stream.
	FlashMultiplier float64
	// FlashStart/FlashLength bound the flash window; they default to
	// Duration/3 and Duration/6 when FlashMultiplier > 1.
	FlashStart, FlashLength time.Duration
	// TerminateFraction sizes the terminate stream: terminate requests
	// arrive at TerminateFraction × the mean booted-VM rate, each freeing
	// the picked customer's oldest VM. Defaults to 0.9 (near steady state);
	// negative disables terminates.
	TerminateFraction float64
	// Prewarm boots this many VMs per customer before the stream starts,
	// giving every customer a standing population. Default 0.
	Prewarm int
	// Duration is the arrival window in virtual time. Defaults to 60s.
	Duration time.Duration
	// Drain is extra virtual time after arrivals stop for in-flight
	// queries, migrations and leases to settle. Defaults to 2 minutes.
	Drain time.Duration
	// Cache, Batch, MaxInFlight and MaxBatch gate the serving-layer
	// optimizations (see serve.Config).
	Cache, Batch bool
	MaxInFlight  int
	MaxBatch     int
	// Rebalance runs the stack's services (the aggregation rounds and the
	// rebalancer, at the paper's 5m / 25m cadences) through the arrival
	// window and stops them before the drain, so their rounds and messages
	// share the network with the stream. Whether a migration follows is up
	// to the load: at 256 servers and 5 req/s for 30 minutes (seed 7) none
	// completes, and so none invalidates a resolution cache entry.
	Rebalance bool
	// Seed drives all randomness.
	Seed int64
	RunConfig
}

func (p ServeParams) withDefaults() ServeParams {
	if p.Spec.Racks == 0 {
		p.Spec = ScaledSpec(512)
	}
	if len(p.Mix) == 0 {
		p.Mix = DefaultServeMix()
	}
	if p.RatePerSec == 0 {
		p.RatePerSec = 100
	}
	if p.Duration == 0 {
		p.Duration = 60 * time.Second
	}
	if p.Drain == 0 {
		p.Drain = 2 * time.Minute
	}
	if p.FlashMultiplier > 1 {
		if p.FlashStart == 0 {
			p.FlashStart = p.Duration / 3
		}
		if p.FlashLength == 0 {
			p.FlashLength = p.Duration / 6
		}
	}
	if p.TerminateFraction == 0 {
		p.TerminateFraction = 0.9
	}
	return p
}

// check leaves MaxInFlight and MaxBatch to serve.New.
func (p ServeParams) check() error {
	return errors.Join(notNegative("RatePerSec", p.RatePerSec), notNegative("FlashMultiplier", p.FlashMultiplier),
		notNegative("FlashStart", p.FlashStart), notNegative("FlashLength", p.FlashLength),
		notNegative("Prewarm", p.Prewarm), notNegative("Duration", p.Duration), notNegative("Drain", p.Drain))
}

// DefaultServeMix is the standard mixed-size customer population: two large
// customers booting 8-VM groups, a middle tier, and a tail of singletons.
func DefaultServeMix() []workload.CustomerClass {
	return []workload.CustomerClass{
		{Name: "big", Count: 2, Weight: 0.5, GroupSize: 8},
		{Name: "mid", Count: 8, Weight: 0.3, GroupSize: 4},
		{Name: "small", Count: 64, Weight: 0.2, GroupSize: 1},
	}
}

// ServeOutcome is the result of RunServe. Every field is derived from
// virtual-time state, so outcomes are byte-identical for any shard count
// and any tracing mode.
type ServeOutcome struct {
	Params ServeParams
	Stats  serve.Stats
	// PlacedPerSec is stream placements per second of virtual time
	// (prewarm excluded).
	PlacedPerSec float64
	// P50/P99/P999/MaxLatency are placement-latency percentiles in
	// milliseconds of virtual time, submission to admission.
	P50, P99, P999, MaxLatency float64
	// MeanHops / HopP50 / HopP99 describe the per-placement query hop
	// distribution.
	MeanHops       float64
	HopP50, HopP99 int
	// Timeouts counts expired queries.
	Timeouts int
	// CacheStats is the resolution-cache counter snapshot (zero when the
	// cache gate is off).
	CacheStats placement.CacheStats
	// Walk attributes the answered queries' forward hops: overlay route,
	// stops of resumed walks, spill walk — and how many visits admitted
	// nothing, how many queries resumed a remembered walk and how many of
	// those fell back to the classic one.
	Walk placement.WalkStats
	// FlashRequests / FlashShed count boot VMs submitted and shed inside
	// the flash window.
	FlashRequests, FlashShed int
	// Messages counts overlay messages sent during the stream (prewarm
	// excluded); MsgsPerPlacement normalizes by stream placements. This is
	// the deterministic cost of serving — the quantity the cache and
	// batching optimizations exist to shrink.
	Messages         int
	MsgsPerPlacement float64
	// Migrations counts completed rebalance migrations.
	Migrations int
	// LeakedReservations and Unresolved must both be zero after the drain.
	LeakedReservations, Unresolved int
	// VirtualEnd is the clock at the end of the run.
	VirtualEnd time.Duration
	Artifacts
}

// RunServe executes the serving experiment.
func RunServe(p ServeParams) (*ServeOutcome, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	vb, art, err := p.build(core.Options{Topology: p.Spec, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	fe, err := serve.New(vb, serve.Config{
		Cache:       p.Cache,
		Batch:       p.Batch,
		MaxInFlight: p.MaxInFlight,
		MaxBatch:    p.MaxBatch,
	})
	if err != nil {
		return nil, err
	}
	mix, err := workload.NewMix(p.Mix)
	if err != nil {
		return nil, err
	}
	out := &ServeOutcome{Params: p, Artifacts: art}

	// Standing population: boot Prewarm VMs per customer and let them
	// settle before the stream begins.
	var streamStart time.Duration
	if p.Prewarm > 0 {
		mix.EachCustomer(func(customer string, _ workload.CustomerClass) {
			if _, err := fe.Boot(customer, p.Prewarm, bootRsv, bootLim); err != nil {
				panic(fmt.Sprintf("experiments: prewarm boot for %s: %v", customer, err))
			}
			if p.MaxInFlight > 0 {
				// Drain below the admission limit so prewarm never sheds.
				vb.RunFor(time.Second)
			}
		})
		vb.RunFor(5 * time.Second)
		streamStart = vb.Now()
	}
	prewarmPlaced := fe.Stats().Placed
	vb.Ring.Network().ResetCounters()

	if p.Rebalance {
		vb.StartServices()
	}

	// Arrival streams: independent seeded rngs per stream, drawn only in
	// global-band callbacks, so the draw sequences are identical for any
	// shard count and for any serving-layer gate settings.
	bootArr := workload.FlashCrowd{
		Base:       p.RatePerSec,
		Multiplier: p.FlashMultiplier,
		Start:      streamStart + p.FlashStart,
		Length:     p.FlashLength,
	}
	bootRng := rand.New(rand.NewSource(p.Seed*6364136223846793005 + 1442695040888963407))
	termRng := rand.New(rand.NewSource(p.Seed*2862933555777941757 + 3037000493))
	end := streamStart + p.Duration
	inFlash := func(t time.Duration) bool {
		return p.FlashMultiplier > 1 && t >= bootArr.Start && t < bootArr.Start+bootArr.Length
	}
	eng := vb.Engine
	var boot func()
	boot = func() {
		now := eng.Now()
		customer, group := mix.Pick(bootRng)
		admitted, berr := fe.Boot(customer, group, bootRsv, bootLim)
		if inFlash(now) {
			out.FlashRequests += group
			if berr != nil && errors.Is(berr, serve.ErrOverloaded) {
				out.FlashShed += group - admitted
			}
		}
		gap := bootArr.Next(now, bootRng)
		if now+gap < end {
			eng.AfterGlobal(gap, boot)
		}
	}
	eng.AfterGlobal(bootArr.Next(streamStart, bootRng), boot)

	if p.TerminateFraction > 0 {
		termArr := workload.Poisson{PerSec: p.RatePerSec * mix.MeanGroup() * p.TerminateFraction}
		var term func()
		term = func() {
			customer, _ := mix.Pick(termRng)
			fe.Terminate(customer)
			gap := termArr.Next(eng.Now(), termRng)
			if eng.Now()+gap < end {
				eng.AfterGlobal(gap, term)
			}
		}
		eng.AfterGlobal(termArr.Next(streamStart, termRng), term)
	}

	vb.RunFor(end - vb.Now())
	if p.Rebalance {
		vb.StopServices()
	}
	vb.RunFor(p.Drain)

	out.Stats = fe.Stats()
	out.PlacedPerSec = float64(out.Stats.Placed-prewarmPlaced) / p.Duration.Seconds()
	lat := fe.Latency()
	out.P50 = float64(lat.Quantile(0.50)) / 1e6
	out.P99 = float64(lat.Quantile(0.99)) / 1e6
	out.P999 = float64(lat.Quantile(0.999)) / 1e6
	out.MaxLatency = float64(lat.Max()) / 1e6
	dht := vb.Placer.(*placement.DHT)
	_, out.MeanHops, _, _ = dht.Stats()
	out.HopP50 = dht.HopQuantile(0.50)
	out.HopP99 = dht.HopQuantile(0.99)
	out.Timeouts = dht.Timeouts()
	out.Walk = dht.Walk()
	if c := fe.Cache(); c != nil {
		out.CacheStats = c.Stats()
	}
	for _, c := range vb.Ring.Network().AllCounters() {
		out.Messages += c.MsgsSent
	}
	if streamPlaced := out.Stats.Placed - prewarmPlaced; streamPlaced > 0 {
		out.MsgsPerPlacement = float64(out.Messages) / float64(streamPlaced)
	}
	out.Migrations = vb.Migration.Stats().Completed
	out.LeakedReservations = vb.Rebalancer.LeakedReservations()
	out.Unresolved = fe.Unresolved()
	out.VirtualEnd = vb.Now()
	return out, nil
}

// Report renders the outcome as a deterministic text block; every number is
// a virtual-time quantity, so serial and sharded runs print byte-identical
// reports.
func (o *ServeOutcome) Report(w io.Writer) {
	p := o.Params
	desc := fmt.Sprintf("%d servers, %.1f req/s", p.Spec.Racks*p.Spec.ServersPerRack, p.RatePerSec)
	if p.FlashMultiplier > 1 {
		desc += fmt.Sprintf(", flash x%.1f @ %v+%v", p.FlashMultiplier, p.FlashStart, p.FlashLength)
	}
	desc += fmt.Sprintf(", cache=%v batch=%v maxInFlight=%d", p.Cache, p.Batch, p.MaxInFlight)
	writeHeader(w, "Boot serve", desc)
	s := o.Stats
	fmt.Fprintf(w, "requests: submitted=%d shed=%d placed=%d failed=%d terminated=%d misses=%d\n",
		s.Requested, s.Shed, s.Placed, s.Failed, s.Terminated, s.TerminateMisses)
	fmt.Fprintf(w, "queries: launched=%d batched=%d batchedVMs=%d timeouts=%d\n",
		s.Queries, s.Batches, s.BatchedVMs, o.Timeouts)
	fmt.Fprintf(w, "throughput: %.2f placements/s (virtual)\n", o.PlacedPerSec)
	fmt.Fprintf(w, "latency ms: p50=%.3f p99=%.3f p999=%.3f max=%.3f\n", o.P50, o.P99, o.P999, o.MaxLatency)
	fmt.Fprintf(w, "query hops: mean=%.2f p50=%d p99=%d\n", o.MeanHops, o.HopP50, o.HopP99)
	fmt.Fprintf(w, "network: msgs=%d msgsPerPlacement=%.2f\n", o.Messages, o.MsgsPerPlacement)
	c := o.CacheStats
	fmt.Fprintf(w, "cache: hits=%d misses=%d stores=%d evictions=%d size=%d\n",
		c.Hits, c.Misses, c.Stores, c.Evictions, c.Size)
	if p.Cache {
		k := o.Walk
		fmt.Fprintf(w, "walk: route=%d stop=%d walk=%d wasted=%d resumed=%d fallbacks=%d\n",
			k.HopsRoute, k.HopsStop, k.HopsWalk, k.HopsWasted, k.Resumed, k.Fallbacks)
	}
	if p.FlashMultiplier > 1 {
		frac := 0.0
		if o.FlashRequests > 0 {
			frac = float64(o.FlashShed) / float64(o.FlashRequests)
		}
		fmt.Fprintf(w, "flash window: requests=%d shed=%d shedFraction=%.3f\n", o.FlashRequests, o.FlashShed, frac)
	}
	fmt.Fprintf(w, "migrations: completed=%d\n", o.Migrations)
	fmt.Fprintf(w, "leaked reservations: %d\n", o.LeakedReservations)
	fmt.Fprintf(w, "unresolved boots: %d\n", o.Unresolved)
}
