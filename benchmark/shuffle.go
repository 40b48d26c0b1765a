package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/experiments"
	"vbundle/internal/metrics"
	"vbundle/internal/migration"
	"vbundle/internal/rebalance"
	"vbundle/internal/scribe"
	"vbundle/internal/simnet"
	"vbundle/internal/store"
	"vbundle/internal/workload"
)

// shuffleCfg describes one closed batch run of the §III resource-shuffling
// protocol: a skewed standing load, periodic aggregation and rebalance
// rounds, and optionally loss, crashes and durable stores.
type shuffleCfg struct {
	servers, vmsPerServer       int
	meanUtil, spread, threshold float64
	updateEvery, rebalanceEvery time.Duration
	duration                    time.Duration
	sampleEvery                 time.Duration
	// The crash_recover extras; all zero on rebalance.
	durable                        bool
	dropRate                       float64
	heartbeat, lease               time.Duration
	crashAt, restartAfter, quiesce time.Duration
	crashNodes, crashForever       int
}

var rebalanceCfg = shuffleCfg{
	servers: 8192, vmsPerServer: 10,
	meanUtil: 0.6226, spread: 0.47, threshold: 0.183,
	updateEvery: 5 * time.Minute, rebalanceEvery: 25 * time.Minute,
	duration: 75 * time.Minute, sampleEvery: time.Minute,
}

var crashRecoverCfg = shuffleCfg{
	servers: 512, vmsPerServer: 10,
	meanUtil: 0.6226, spread: 0.47, threshold: 0.183,
	updateEvery: 5 * time.Minute, rebalanceEvery: 25 * time.Minute,
	duration: 75 * time.Minute, sampleEvery: time.Minute,
	durable: true, dropRate: 0.02,
	heartbeat: time.Minute, lease: 10 * time.Minute,
	crashAt: 25 * time.Minute, restartAfter: 10 * time.Minute, quiesce: 15 * time.Minute,
	crashNodes: 8, crashForever: 2,
}

// seedSkewedLoad is the Fig 9/10 "before" state: every server gets
// vmsPerServer VMs whose summed demand puts its utilisation uniformly in
// [mean−spread, mean+spread] (floored at 0.02). The draw order follows
// experiments.RunRebalance so both harnesses see the same cluster on the
// same seed.
func seedSkewedLoad(vb *core.VBundle, cfg shuffleCfg, rng *rand.Rand) error {
	rsv := cluster.Resources{CPU: 0.2, MemMB: 128, BandwidthMbps: 10}
	lim := cluster.Resources{CPU: 4, MemMB: 128, BandwidthMbps: vb.Topo.NICMbps()}
	for s := 0; s < vb.Cluster.Size(); s++ {
		target := cfg.meanUtil + (rng.Float64()*2-1)*cfg.spread
		if target < 0.02 {
			target = 0.02
		}
		perVM := target * vb.Cluster.Server(s).Capacity.BandwidthMbps / float64(cfg.vmsPerServer)
		for v := 0; v < cfg.vmsPerServer; v++ {
			vm, err := vb.Cluster.CreateVM("bundle", rsv, lim)
			if err != nil {
				return err
			}
			if err := vb.Cluster.Place(vm, s); err != nil {
				return err
			}
			vm.Demand.BandwidthMbps = perVM
			vb.Workloads.Attach(vm.ID, workload.Flat(perVM))
		}
	}
	return nil
}

// shuffleResult is what the hard checks of a shuffling workload look at.
type shuffleResult struct {
	vmsBefore, vmsAfter, hosted int
	leaked, lostPlacements      int
	mig                         migration.Stats
}

func (r shuffleResult) check() error {
	switch {
	case r.leaked != 0:
		return fmt.Errorf("%d leaked reservations", r.leaked)
	case r.vmsAfter != r.vmsBefore:
		return fmt.Errorf("VM count changed: %d before, %d after", r.vmsBefore, r.vmsAfter)
	case r.hosted != r.vmsAfter:
		return fmt.Errorf("%d VMs registered but %d hosted: VM lost", r.vmsAfter, r.hosted)
	case r.lostPlacements != 0:
		return fmt.Errorf("%d placements lost across restarts", r.lostPlacements)
	case r.mig.Completed+r.mig.Failed != r.mig.Started:
		return fmt.Errorf("migrations completed %d + failed %d != started %d", r.mig.Completed, r.mig.Failed, r.mig.Started)
	}
	return nil
}

// liveUtil returns the utilisation of every server whose node is alive.
func liveUtil(vb *core.VBundle) []float64 {
	net := vb.Ring.Network()
	all := vb.UtilizationSnapshot()
	live := all[:0:0]
	for i, u := range all {
		if net.Alive(simnet.Addr(i)) {
			live = append(live, u)
		}
	}
	return live
}

// settleTime is the first sample after which the SD series stays within
// 10 % of its final value.
func settleTime(times []time.Duration, sd []float64) time.Duration {
	if len(sd) == 0 {
		return 0
	}
	final := sd[len(sd)-1]
	settle := len(sd) - 1
	for i := len(sd) - 1; i >= 0; i-- {
		if math.Abs(sd[i]-final) > 0.1*final {
			break
		}
		settle = i
	}
	return times[settle]
}

// runShuffle drives one shuffling workload.
func runShuffle(e *env, cfg shuffleCfg) (*outcome, error) {
	o := newOutcome()
	tr := e.obs.New()
	o.trace = tr
	opts := core.Options{
		Topology:    experiments.ScaledSpec(e.size(cfg.servers)),
		Seed:        engineSeed,
		Shards:      e.shards,
		Trace:       tr,
		MessageLoss: cfg.dropRate,
		Rebalance: rebalance.Config{
			Threshold:         cfg.threshold,
			UpdateInterval:    cfg.updateEvery,
			RebalanceInterval: cfg.rebalanceEvery,
			LeaseDuration:     cfg.lease,
		},
	}
	if cfg.durable {
		opts.Store = store.NewMem()
	}

	var vb *core.VBundle
	var err error
	e.phase(o, 0, func() {
		e.rec.time("core.new", func() { vb, err = core.New(opts) })
		if err != nil {
			return
		}
		e.rec.time("cluster.seed", func() {
			err = seedSkewedLoad(vb, cfg, rand.New(rand.NewSource(e.seed+1)))
		})
	})
	if err != nil {
		return nil, err
	}
	o.keep = vb
	net := vb.Ring.Network()
	res := shuffleResult{vmsBefore: vb.Cluster.NumVMs()}
	mean := vb.Cluster.MeanUtilizationBW()
	aboveStart := experiments.CountAbove(liveUtil(vb), mean+cfg.threshold)

	var times []time.Duration
	var sds []float64
	sampleSite := callSite{name: "workload.sample"}
	satisfactionSite := callSite{name: "core.bandwidth_satisfaction"}
	sample := func() {
		e.rec.beginCall(&sampleSite)
		times = append(times, vb.Now())
		sds = append(sds, metrics.StdOf(liveUtil(vb)))
		e.rec.beginCall(&satisfactionSite)
		vb.BandwidthSatisfaction()
		e.rec.end()
		e.rec.end()
	}
	var crashed, dead []int

	e.phase(o, 1, func() {
		sample()
		sampler := vb.Engine.EveryGlobal(cfg.sampleEvery, sample)
		vb.Workloads.Start(cfg.updateEvery)
		if cfg.heartbeat > 0 {
			vb.StartMaintenance(cfg.heartbeat)
		}
		vb.StartServices()
		if cfg.crashNodes+cfg.crashForever > 0 {
			e.rec.time("sim.run", func() { vb.RunFor(cfg.crashAt) })
			crashed, dead = crashVictims(vb, cfg)
			e.rec.time("sim.run", func() { vb.RunFor(cfg.duration - cfg.crashAt) })
		} else {
			e.rec.time("sim.run", func() { vb.RunFor(cfg.duration) })
		}
		vb.StopServices()
		if cfg.heartbeat > 0 {
			vb.StopMaintenance()
		}
		vb.Workloads.Stop()
		sampler.Stop()
		if cfg.quiesce > 0 {
			e.rec.time("sim.run", func() { vb.RunFor(cfg.quiesce) })
		} else {
			e.rec.time("sim.run", vb.Engine.Run)
		}
	})

	res.vmsAfter = vb.Cluster.NumVMs()
	for _, srv := range vb.Cluster.Servers() {
		res.hosted += srv.NumVMs()
	}
	res.leaked = vb.Rebalancer.LeakedReservations()
	res.lostPlacements = vb.Recovery.LostPlacements
	res.mig = vb.Migration.Stats()
	if err := res.check(); err != nil {
		return nil, err
	}

	servers := vb.Cluster.Size()
	msgs, _ := netTotals(net)
	hours := vb.Now().Hours()
	aboveEnd := experiments.CountAbove(liveUtil(vb), mean+cfg.threshold)
	o.ops = res.mig.Started
	// A migration aborted because an injected crash took an endpoint down
	// is the fault schedule at work, not an operation that failed.
	o.failedOps = res.mig.Failed - res.mig.FailedDeadDest - res.mig.FailedDeadSource
	o.model["msgs_per_op"] = float64(msgs) / (float64(servers) * hours)
	if aboveStart > 0 {
		o.model["failed_frac"] = float64(aboveEnd) / float64(aboveStart)
	}
	o.model["virt_settle_s"] = settleTime(times, sds).Seconds()
	o.info["migrations_completed"] = float64(res.mig.Completed)
	o.info["migrations_failed"] = float64(res.mig.Failed)
	o.info["queries_sent"] = float64(vb.Rebalancer.QueriesSent())
	o.info["overloaded_start"] = float64(aboveStart)
	o.info["overloaded_end"] = float64(aboveEnd)
	o.info["sd_start"] = sds[0]
	o.info["sd_end"] = sds[len(sds)-1]
	o.info["crashed"] = float64(len(crashed))
	o.info["dead"] = float64(len(dead))
	if e.shards > 0 {
		shardInfo(o, vb.Engine)
	}
	if tr != nil {
		collectCounts(o, tr, net)
		collectShuffleCounts(o, vb)
	}
	return o, nil
}

// crashVictims crashes the nodes whose durable state is worth reconciling,
// in the order experiments.RunCrashRestart picks them: lease holders first
// (the crash orphans their holds), then current receivers, then any live
// node. The first crashNodes restart after restartAfter; the rest stay
// down. Node 0 is the DHT gateway and never a victim.
func crashVictims(vb *core.VBundle, cfg shuffleCfg) (crashed, dead []int) {
	net := vb.Ring.Network()
	want := cfg.crashNodes + cfg.crashForever
	crash := func(i int) {
		addr := vb.Ring.Node(i).Addr()
		net.Crash(addr)
		if len(crashed) < cfg.crashNodes {
			crashed = append(crashed, i)
			vb.Engine.AtGlobal(vb.Now()+cfg.restartAfter, func() { net.Restart(addr) })
		} else {
			dead = append(dead, i)
		}
	}
	done := func() bool { return len(crashed)+len(dead) >= want }
	alive := func(i int) bool { return net.Alive(vb.Ring.Node(i).Addr()) }
	for i := 1; i < vb.Ring.Size() && !done(); i++ {
		if alive(i) && vb.Rebalancer.Agent(i).HeldLeases() > 0 {
			crash(i)
		}
	}
	for i := 1; i < vb.Ring.Size() && !done(); i++ {
		if alive(i) && vb.Rebalancer.Agent(i).Role() == rebalance.RoleReceiver {
			crash(i)
		}
	}
	for i := 1; i < vb.Ring.Size() && !done(); i++ {
		if alive(i) {
			crash(i)
		}
	}
	return crashed, dead
}

// collectShuffleCounts reads the rebalance, migration, cluster and recovery
// layers' public counters after a traced iteration.
func collectShuffleCounts(o *outcome, vb *core.VBundle) {
	c := o.counts
	rs := vb.Rebalancer.ReserveStats()
	c["rebalance.queries_sent"] = float64(vb.Rebalancer.QueriesSent())
	c["rebalance.migrations_triggered"] = float64(vb.Rebalancer.MigrationsTriggered())
	c["rebalance.lease_grants"] = float64(rs.Accepted)
	c["rebalance.lease_renews"] = float64(rs.Renewed)
	c["rebalance.lease_expired"] = float64(rs.Expired)
	c["rebalance.unknown_releases"] = float64(rs.UnknownRelease)
	c["rebalance.duplicate_releases"] = float64(rs.DuplicateRelease)
	c["rebalance.leaked"] = float64(vb.Rebalancer.LeakedReservations())
	ms := vb.Migration.Stats()
	c["migration.started"] = float64(ms.Started)
	c["migration.completed"] = float64(ms.Completed)
	c["migration.failed"] = float64(ms.Failed)
	c["migration.moved_mem_mb"] = ms.MovedMemMB
	c["cluster.vms"] = float64(vb.Cluster.NumVMs())
	c["core.restarts"] = float64(vb.Recovery.Restarts)
	c["core.adopted_leases"] = float64(vb.Recovery.AdoptedLeases)
	c["core.released_leases"] = float64(vb.Recovery.ReleasedLeases)
	c["core.verified_placements"] = float64(vb.Recovery.VerifiedPlacements)
	c["aggregation.tree_height"] = float64(treeHeight(vb.Scribes, scribe.GroupKey(rebalance.TopicDemand)))
}
