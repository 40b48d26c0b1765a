package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/costbenefit"
	"vbundle/internal/experiments"
	"vbundle/internal/metrics"
	"vbundle/internal/workload"
)

// runSim is the free-form driver: it builds a datacenter, boots VMs for a
// set of customers through the chosen placement engine, drives bursty
// workloads, runs the rebalancer, and reports placement quality, utilization
// balance and bandwidth satisfaction as the run goes and at its end.
func runSim(e *env, args []string) error {
	var (
		opts core.Options
		rc   experiments.RunConfig
	)
	e.fs.Float64Var(&opts.Rebalance.Threshold, "threshold", 0.183, "rebalancing threshold")
	e.fs.BoolVar(&opts.Rebalance.SameCustomerOnly, "same-customer", false, "restrict exchanges to each customer's own bundle")
	e.fs.Float64Var(&opts.MessageLoss, "loss", 0, "overlay message loss probability")
	e.fs.IntVar(&opts.Shards, "shards", 0, "engine shards (0 = serial reference engine)")
	var (
		servers     = e.fs.Int("servers", 300, "approximate server count")
		customers   = e.fs.Int("customers", 5, "number of customers")
		vms         = e.fs.Int("vms", 100, "VMs per customer")
		engine      = e.fs.String("engine", "dht", "placement engine: dht, greedy or random")
		hours       = e.fs.Float64("hours", 2, "virtual hours to simulate")
		multiKind   = e.fs.Bool("multi-resource", false, "rebalance on CPU+memory+bandwidth (§VII extension)")
		costBenefit = e.fs.Bool("cost-benefit", false, "veto migrations whose cost exceeds the recovered bandwidth")
	)
	if err := e.parseRun(args, &opts.Seed, &rc); err != nil {
		return err
	}
	var err error
	if opts.Engine, err = parseEngine(*engine); err != nil {
		return err
	}
	if opts.Topology, err = scaledSpec(*servers); err != nil {
		return err
	}
	if *customers < 0 {
		return fmt.Errorf("-customers %d: must not be negative", *customers)
	}
	if *vms < 0 {
		return fmt.Errorf("-vms %d: must not be negative", *vms)
	}
	// The run reports at eight even steps, so it must span eight nanoseconds.
	duration := time.Duration(*hours * float64(time.Hour))
	step := duration / 8
	if step <= 0 {
		return fmt.Errorf("-hours %g: want a run of at least 8ns", *hours)
	}
	if *multiKind {
		opts.Rebalance.Kinds = []cluster.Kind{cluster.KindBandwidth, cluster.KindCPU, cluster.KindMemory}
	}
	if *costBenefit {
		opts.Rebalance.CostBenefit = &costbenefit.Config{}
	}
	opts.Trace = rc.Obs.New()
	vb, err := core.New(opts)
	if err != nil {
		return err
	}
	e.collect(experiments.Artifacts{Trace: opts.Trace, Audit: vb.AttachAudit(rc.Audit)})
	if opts.MessageLoss > 0 {
		vb.StartMaintenance(30 * time.Second)
	}

	rsv := cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: 20}
	lim := cluster.Resources{CPU: 4, MemMB: 128, BandwidthMbps: vb.Topo.NICMbps()}
	rng := rand.New(rand.NewSource(opts.Seed))
	booted, failed := 0, 0
	for c := 0; c < *customers; c++ {
		name := fmt.Sprintf("customer-%02d", c)
		for v := 0; v < *vms; v++ {
			vm, _, err := vb.BootVM(name, rsv, lim)
			if err != nil {
				failed++
				continue
			}
			booted++
			// Staggered bursty demand creates the workload variation
			// v-Bundle exploits.
			vb.Workloads.Attach(vm.ID, workload.Bursty(
				10, 80+rng.Float64()*120,
				time.Duration(30+rng.Intn(60))*time.Minute,
				0.3+0.4*rng.Float64(),
				rng.Float64(),
			))
		}
	}
	e.printf("booted %d VMs (%d failed) for %d customers on %d servers via %s\n",
		booted, failed, *customers, vb.Topo.Servers(), vb.Placer.Name())

	q := vb.PlacementQuality()
	e.printf("placement: same-rack chatting fraction %.3f, cross-rack traffic %.0f Mbps\n",
		q.SameRackPairFraction(), q.Load.CrossRackMbps())

	vb.Workloads.Start(5 * time.Minute)
	vb.StartServices()

	for t := step; t <= duration; t += step {
		vb.RunFor(step)
		rep := vb.BandwidthSatisfaction()
		e.printf("t=%-8s SD=%.4f demand=%.0f satisfied=%.0f migrations=%d\n",
			t.Round(time.Minute), vb.UtilizationStdDev(),
			rep.DemandMbps, rep.SatisfiedMbps, vb.Migration.Stats().Completed)
	}
	vb.StopServices()
	vb.Workloads.Stop()

	snap := vb.UtilizationSnapshot()
	e.printf("final: mean util %.3f, SD %.4f, max %.3f, migrations completed %d, queries %d\n",
		metrics.MeanOf(snap), metrics.StdOf(snap), slices.Max(snap),
		vb.Migration.Stats().Completed, vb.Rebalancer.QueriesSent())
	return nil
}
