package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/experiments"
	"vbundle/internal/placement"
	"vbundle/internal/serve"
	"vbundle/internal/workload"
)

// serveCfg describes one open-loop serving workload.
type serveCfg struct {
	servers      int
	cache, batch bool
	mix          []workload.CustomerClass
	// prewarm boots this many VMs per customer during setup.
	prewarm int
	// ratePerSec is the Poisson boot-request rate on the virtual clock;
	// terminates arrive at termFrac × the booted-VM rate.
	ratePerSec float64
	termFrac   float64
	// duration is the arrival window, drain the quiet tail after it.
	duration, drain time.Duration
	rsvMbps         float64
}

var serveHot = serveCfg{
	servers: 8192, cache: true, batch: true,
	mix:        experiments.DefaultServeMix(),
	prewarm:    2,
	ratePerSec: 400, termFrac: 0.9,
	duration: 20 * time.Second, drain: 2 * time.Minute,
	rsvMbps: 100,
}

var bootRouted = serveCfg{
	servers:    32768,
	mix:        []workload.CustomerClass{{Name: "tenant", Count: 8192, Weight: 1, GroupSize: 2}},
	ratePerSec: 2000, termFrac: 0.9,
	duration: 30 * time.Second, drain: 2 * time.Minute,
	rsvMbps: 100,
}

// serveResult is what the hard checks of a serving workload look at.
type serveResult struct {
	stats              serve.Stats
	leaked, unresolved int
	registered, hosted int // VMs the cluster knows; VMs some server hosts
}

func (r serveResult) check() error {
	s := r.stats
	switch {
	case r.leaked != 0:
		return fmt.Errorf("%d leaked reservations", r.leaked)
	case r.unresolved != 0:
		return fmt.Errorf("%d unresolved boots", r.unresolved)
	case s.Placed+s.Shed+s.Failed != s.Requested:
		return fmt.Errorf("placed %d + shed %d + failed %d != requested %d", s.Placed, s.Shed, s.Failed, s.Requested)
	case r.registered != s.Placed-s.Terminated:
		return fmt.Errorf("cluster holds %d VMs, placed %d - terminated %d = %d", r.registered, s.Placed, s.Terminated, s.Placed-s.Terminated)
	case r.hosted != r.registered:
		return fmt.Errorf("%d VMs registered but %d hosted: placement lost", r.registered, r.hosted)
	}
	return nil
}

// runServe drives one serving workload: build the stack and its standing
// population, then push seeded Poisson boot and terminate streams through
// the front end on the virtual clock and drain.
//
// The streams are open loop: every arrival is scheduled on the virtual
// clock from the previous one's due time, never from a completion, and
// serve.Frontend times each boot from that instant — in virtual time the
// generator is never late. Its host cost is the workload.gen span.
func runServe(e *env, cfg serveCfg) (*outcome, error) {
	o := newOutcome()
	tr := e.obs.New()
	o.trace = tr
	spec := experiments.ScaledSpec(e.size(cfg.servers))
	mix, err := workload.NewMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	// A size override scales the arrival rate with the ring, so a small test
	// ring sees the same load per server as the measured one.
	rate := cfg.ratePerSec * float64(e.size(cfg.servers)) / float64(cfg.servers)
	rsv := cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: cfg.rsvMbps}
	lim := cluster.Resources{CPU: 2, MemMB: 128, BandwidthMbps: cfg.rsvMbps * 2}

	var vb *core.VBundle
	var fe *serve.Frontend
	var streamStart time.Duration
	e.phase(o, 0, func() {
		e.rec.time("core.new", func() {
			vb, err = core.New(core.Options{Topology: spec, Seed: engineSeed, Shards: e.shards, Trace: tr})
		})
		if err != nil {
			return
		}
		e.rec.time("serve.new", func() {
			fe, err = serve.New(vb, serve.Config{Cache: cfg.cache, Batch: cfg.batch})
		})
		if err != nil || cfg.prewarm == 0 {
			return
		}
		e.rec.time("cluster.seed", func() {
			mix.EachCustomer(func(customer string, _ workload.CustomerClass) {
				if _, berr := fe.Boot(customer, cfg.prewarm, rsv, lim); berr != nil && err == nil {
					err = fmt.Errorf("prewarm boot for %s: %w", customer, berr)
				}
			})
			vb.RunFor(5 * time.Second)
		})
		streamStart = vb.Now()
	})
	if err != nil {
		return nil, err
	}
	o.keep = vb
	var res serveResult
	prewarmPlaced := fe.Stats().Placed
	net := vb.Ring.Network()

	// Independent seeded streams, drawn only inside global-band callbacks.
	// Seeds and draw order follow experiments.RunServe so the two harnesses
	// agree stat for stat on the same seed.
	bootRng := rand.New(rand.NewSource(e.seed*6364136223846793005 + 1442695040888963407))
	termRng := rand.New(rand.NewSource(e.seed*2862933555777941757 + 3037000493))
	bootArr := workload.FlashCrowd{Base: rate} // multiplier 0: plain Poisson
	termArr := workload.Poisson{PerSec: rate * mix.MeanGroup() * cfg.termFrac}
	end := streamStart + cfg.duration
	eng := vb.Engine
	genSite := callSite{name: "workload.gen"}
	bootSite := callSite{name: "serve.boot_call"}
	termSite := callSite{name: "serve.terminate_call"}
	var boot, term func()
	boot = func() {
		e.rec.beginCall(&genSite)
		now := eng.Now()
		customer, group := mix.Pick(bootRng)
		e.rec.beginCall(&bootSite)
		// Admission control is off (MaxInFlight 0), so Boot cannot shed;
		// any error shows up in Stats.Failed and fails the checks.
		_, _ = fe.Boot(customer, group, rsv, lim)
		e.rec.end()
		if gap := bootArr.Next(now, bootRng); now+gap < end {
			eng.AfterGlobal(gap, boot)
		}
		e.rec.end()
	}
	term = func() {
		e.rec.beginCall(&genSite)
		customer, _ := mix.Pick(termRng)
		e.rec.beginCall(&termSite)
		fe.Terminate(customer)
		e.rec.end()
		if gap := termArr.Next(eng.Now(), termRng); eng.Now()+gap < end {
			eng.AfterGlobal(gap, term)
		}
		e.rec.end()
	}

	e.phase(o, 1, func() {
		net.ResetCounters()
		eng.AfterGlobal(bootArr.Next(streamStart, bootRng), boot)
		if cfg.termFrac > 0 {
			eng.AfterGlobal(termArr.Next(streamStart, termRng), term)
		}
		e.rec.time("sim.run", func() { vb.RunFor(end - vb.Now()) })
		e.rec.time("sim.run", func() { vb.RunFor(cfg.drain) })
	})

	res.stats = fe.Stats()
	res.leaked = vb.Rebalancer.LeakedReservations()
	res.unresolved = fe.Unresolved()
	res.registered = vb.Cluster.NumVMs()
	for _, srv := range vb.Cluster.Servers() {
		res.hosted += srv.NumVMs()
	}
	if err := res.check(); err != nil {
		return nil, err
	}

	s := res.stats
	streamPlaced := s.Placed - prewarmPlaced
	msgs, _ := netTotals(net)
	lat := fe.Latency()
	dht := vb.Placer.(*placement.DHT)
	o.ops = s.Requested
	o.failedOps = s.Shed + s.Failed + res.unresolved
	o.model["virt_p50_ms"] = float64(lat.Quantile(0.50)) / 1e6
	o.model["virt_p99_ms"] = float64(lat.Quantile(0.99)) / 1e6
	if streamPlaced > 0 {
		o.model["msgs_per_op"] = float64(msgs) / float64(streamPlaced)
	}
	// Timeouts are already inside Failed: an expired query fails its VMs.
	o.model["failed_frac"] = float64(o.failedOps) / float64(s.Requested)
	o.model["same_rack_frac"] = sameRackFraction(vb.Cluster)
	o.info["virt_p999_ms"] = float64(lat.Quantile(0.999)) / 1e6
	o.info["virt_samples"] = float64(lat.Count())
	o.info["stream_placed"] = float64(streamPlaced)
	o.info["stream_msgs"] = float64(msgs)
	o.info["terminated"] = float64(s.Terminated)
	if e.shards > 0 {
		shardInfo(o, eng)
	}
	if tr != nil {
		collectCounts(o, tr, net)
		collectServeCounts(o, fe, dht, vb)
	}
	return o, nil
}

// sameRackFraction is the fraction of same-customer VM pairs that share a
// rack, weighted by each customer's VM count — the quantity
// placement.Quality estimates by sampling pairs. It is computed exactly here
// from per-rack counts: the library walks every VM once per customer (10 s
// at 8192 customers) and sums floats in map order, so neither its cost nor
// its last bits would repeat from run to run.
func sameRackFraction(cl *cluster.Cluster) float64 {
	topo := cl.Topology()
	perRack := make(map[string]map[int]int)
	cl.EachVM(func(vm *cluster.VM) {
		server, placed := cl.LocationOf(vm.ID)
		if !placed {
			return
		}
		racks := perRack[vm.Customer]
		if racks == nil {
			racks = make(map[int]int)
			perRack[vm.Customer] = racks
		}
		racks[topo.RackOf(server)]++
	})
	// Integer pair counts first, so map order cannot change the result.
	customers := make([]string, 0, len(perRack))
	for name := range perRack {
		customers = append(customers, name)
	}
	sort.Strings(customers)
	var weight, same float64
	for _, name := range customers {
		n, samePairs := 0, 0
		for _, c := range perRack[name] {
			n += c
			samePairs += c * (c - 1) / 2
		}
		if n < 2 {
			continue
		}
		weight += float64(n)
		same += float64(samePairs) / float64(n*(n-1)/2) * float64(n)
	}
	if weight == 0 {
		return 0
	}
	return same / weight
}

// collectServeCounts reads the serving and placement layers' public
// counters after a traced iteration.
func collectServeCounts(o *outcome, fe *serve.Frontend, dht *placement.DHT, vb *core.VBundle) {
	s := fe.Stats()
	c := o.counts
	c["serve.requested"] = float64(s.Requested)
	c["serve.placed"] = float64(s.Placed)
	c["serve.shed"] = float64(s.Shed)
	c["serve.failed"] = float64(s.Failed)
	c["serve.batches"] = float64(s.Batches)
	if s.Queries > 0 {
		c["serve.batch_mean"] = float64(s.Placed+s.Failed) / float64(s.Queries)
	}
	c["serve.terminate_misses"] = float64(s.TerminateMisses)
	_, meanHops, _, _ := dht.Stats()
	c["placement.queries"] = float64(s.Queries)
	c["placement.hops_mean"] = meanHops
	c["placement.hops_p99"] = float64(dht.HopQuantile(0.99))
	c["placement.timeouts"] = float64(dht.Timeouts())
	// With the cache gate off there is no cache, and its counters read 0.
	var cs placement.CacheStats
	if cache := fe.Cache(); cache != nil {
		cs = cache.Stats()
	}
	c["placement.cache_hits"] = float64(cs.Hits)
	c["placement.cache_misses"] = float64(cs.Misses)
	c["placement.cache_evictions"] = float64(cs.Evictions)
	c["placement.cache_hit_ratio"] = 0
	if cs.Hits+cs.Misses > 0 {
		c["placement.cache_hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	c["cluster.vms"] = float64(vb.Cluster.NumVMs())
}
