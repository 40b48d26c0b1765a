package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/metrics"
	"vbundle/internal/rebalance"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
	"vbundle/internal/workload"
)

// RebalanceParams configures the Fig. 9–11 resource-shuffling experiments.
type RebalanceParams struct {
	// Spec is the datacenter; defaults to the paper's ≈3000 servers.
	Spec topology.Spec
	// VMsPerServer sets the load granularity (paper: 75000 VMs on 3000
	// servers ⇒ 25 per server).
	VMsPerServer int
	// Threshold is the rebalancing margin (Fig. 9 compares 0.3 and 0.1;
	// Fig. 10 uses 0.183).
	Threshold float64
	// UpdateInterval and RebalanceInterval follow the paper (5 and 25
	// minutes).
	UpdateInterval, RebalanceInterval time.Duration
	// Duration is how long the experiment runs (paper plots 15–75 min).
	Duration time.Duration
	// SampleEvery is the time-series sampling period.
	SampleEvery time.Duration
	// Seed drives the synthetic load.
	Seed int64
	RunConfig
}

func (p RebalanceParams) withDefaults() RebalanceParams {
	if p.Spec.Racks == 0 {
		p.Spec = topology.DefaultSpec()
	}
	if p.VMsPerServer == 0 {
		p.VMsPerServer = 25
	}
	if p.Threshold == 0 {
		p.Threshold = 0.183
	}
	if p.UpdateInterval == 0 {
		p.UpdateInterval = 5 * time.Minute
	}
	if p.RebalanceInterval == 0 {
		p.RebalanceInterval = 25 * time.Minute
	}
	if p.Duration == 0 {
		p.Duration = 75 * time.Minute
	}
	if p.SampleEvery == 0 {
		p.SampleEvery = time.Minute
	}
	return p
}

func (p RebalanceParams) check() error {
	return errors.Join(notNegative("VMsPerServer", p.VMsPerServer), notNegative("Threshold", p.Threshold),
		notNegative("Duration", p.Duration), notNegative("SampleEvery", p.SampleEvery))
}

// RebalanceOutcome carries the series behind Figs. 9, 10 and 11.
type RebalanceOutcome struct {
	Params RebalanceParams
	// Before and After are the per-server utilization snapshots (Fig. 9).
	Before, After []float64
	// MeanUtil is the cluster average line.
	MeanUtil float64
	// SD is the utilization standard deviation over time (Fig. 10).
	SD metrics.TimeSeries
	// Demand and Satisfied are total bandwidth over time (Fig. 11).
	Demand, Satisfied metrics.TimeSeries
	// Migrations and Queries count rebalancing activity.
	Migrations, Queries int
	// MigrationsCompleted counts arrivals.
	MigrationsCompleted int
	Artifacts
}

// The paper's skewed load (Fig. 9): each server's utilization is drawn
// uniformly from paperMeanUtil ± paperUtilSpread, roughly 0.15–1.1.
const (
	paperMeanUtil   = 0.6226
	paperUtilSpread = 0.47
)

// seedSkewedLoad provisions VMs so each server's utilization is drawn
// uniformly from [mean−spread, mean+spread] (clamped at a small floor),
// reproducing the imbalanced "before" state of Fig. 9.
func seedSkewedLoad(vb *core.VBundle, vmsPerServer int, meanUtil, spread float64, rng *rand.Rand) error {
	rsv := cluster.Resources{CPU: 0.2, MemMB: 128, BandwidthMbps: 10}
	lim := cluster.Resources{CPU: 4, MemMB: 128, BandwidthMbps: vb.Topo.NICMbps()}
	for s := 0; s < vb.Cluster.Size(); s++ {
		target := meanUtil + (rng.Float64()*2-1)*spread
		if target < 0.02 {
			target = 0.02
		}
		perVM := target * vb.Cluster.Server(s).Capacity.BandwidthMbps / float64(vmsPerServer)
		for v := 0; v < vmsPerServer; v++ {
			vm, err := vb.Cluster.CreateVM("bundle", rsv, lim)
			if err != nil {
				return err
			}
			// Demand is written before Place: once placed, only
			// Cluster.SetDemandBW may change it.
			vm.Demand.BandwidthMbps = perVM
			if err := vb.Cluster.Place(vm, s); err != nil {
				return err
			}
			vb.Workloads.Attach(vm.ID, workload.Flat(perVM))
		}
	}
	return nil
}

// skewedRun is one run of the paper's shuffling scenario (§III, Fig. 9–11):
// a full stack under a skewed load, aggregation and any-cast rounds on for
// a window, then off and run out. The rebalance experiment, the fault
// experiment and Fig. 15's message count are this run with different
// options, observers and windows.
type skewedRun struct {
	// opts builds the stack on rc; Rebalance.UpdateInterval is also the
	// workload refresh period.
	opts core.Options
	rc   RunConfig
	// vmsPerServer, meanUtil, spread and loadSeed shape the load.
	vmsPerServer     int
	meanUtil, spread float64
	loadSeed         int64
	// before, when set, sees the seeded stack with nothing switched on.
	before func(vb *core.VBundle)
	// sample, when set, runs once behind before and then every sampleEvery
	// in the global band until the services stop.
	sample      func(vb *core.VBundle)
	sampleEvery time.Duration
	// repair, when set, switches self-repair on beside the services and
	// returns what switches it off again.
	repair func(vb *core.VBundle) (stop func())
	// window runs with the services on.
	window func(vb *core.VBundle)
	// quiesce bounds the run-out after the services stop; zero drains the
	// event queue. A run that injected faults must bound it: a loss-damaged
	// aggregation tree can bounce repair traffic indefinitely.
	quiesce time.Duration
}

func (r skewedRun) run() (*core.VBundle, Artifacts, error) {
	vb, art, err := r.rc.build(r.opts)
	if err != nil {
		return nil, art, err
	}
	rng := rand.New(rand.NewSource(r.loadSeed))
	if err := seedSkewedLoad(vb, r.vmsPerServer, r.meanUtil, r.spread, rng); err != nil {
		return nil, art, err
	}
	if r.before != nil {
		r.before(vb)
	}
	var sampler *sim.Ticker
	if r.sample != nil {
		r.sample(vb)
		sampler = vb.Engine.EveryGlobal(r.sampleEvery, func() { r.sample(vb) })
	}

	vb.Workloads.Start(r.opts.Rebalance.UpdateInterval)
	stopRepair := func() {}
	if r.repair != nil {
		stopRepair = r.repair(vb)
	}
	vb.StartServices()
	r.window(vb)
	vb.StopServices()
	stopRepair()
	vb.Workloads.Stop()
	if sampler != nil {
		sampler.Stop()
	}
	if r.quiesce > 0 {
		vb.RunFor(r.quiesce)
	} else {
		vb.Engine.Run()
	}
	return vb, art, nil
}

// spine is the run every RebalanceParams field but Duration describes; the
// caller adds its observers and its window.
func (p RebalanceParams) spine() skewedRun {
	return skewedRun{
		opts: core.Options{
			Topology: p.Spec,
			Seed:     p.Seed,
			Rebalance: rebalance.Config{
				Threshold:         p.Threshold,
				UpdateInterval:    p.UpdateInterval,
				RebalanceInterval: p.RebalanceInterval,
			},
		},
		vmsPerServer: p.VMsPerServer,
		meanUtil:     paperMeanUtil,
		spread:       paperUtilSpread,
		loadSeed:     p.Seed + 1,
		rc:           p.RunConfig,
		sampleEvery:  p.SampleEvery,
	}
}

// RunRebalance executes the resource-shuffling experiment.
func RunRebalance(p RebalanceParams) (*RebalanceOutcome, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	out := &RebalanceOutcome{Params: p}
	r := p.spine()
	r.before = func(vb *core.VBundle) {
		out.Before = vb.UtilizationSnapshot()
		out.MeanUtil = vb.Cluster.MeanUtilizationBW()
	}
	r.sample = func(vb *core.VBundle) {
		now := vb.Now()
		out.SD.Add(now, vb.UtilizationStdDev())
		rep := vb.BandwidthSatisfaction()
		out.Demand.Add(now, rep.DemandMbps)
		out.Satisfied.Add(now, rep.SatisfiedMbps)
	}
	r.window = func(vb *core.VBundle) { vb.RunFor(p.Duration) }
	vb, art, err := r.run()
	if err != nil {
		return nil, err
	}
	out.Artifacts = art
	out.After = vb.UtilizationSnapshot()
	out.Migrations = vb.Rebalancer.MigrationsTriggered()
	out.Queries = vb.Rebalancer.QueriesSent()
	out.MigrationsCompleted = vb.Migration.Stats().Completed
	return out, nil
}

// CountAbove returns how many values exceed the limit.
func CountAbove(values []float64, limit float64) int {
	n := 0
	for _, v := range values {
		if v > limit {
			n++
		}
	}
	return n
}

// WriteFig9 renders the before/after relief summary of Fig. 9.
func (o *RebalanceOutcome) WriteFig9(w io.Writer) {
	writeHeader(w, "Fig 9", fmt.Sprintf("utilization before/after rebalancing, %d servers × %d VMs, threshold=%.3g",
		len(o.Before), o.Params.VMsPerServer*len(o.Before), o.Params.Threshold))
	fmt.Fprintf(w, "mean utilization line: %.4f (paper: 0.6226)\n", o.MeanUtil)
	limit := o.MeanUtil + o.Params.Threshold
	for _, cut := range []float64{0.7, 0.8, 0.9, limit} {
		fmt.Fprintf(w, "servers above %.3f: before=%d after=%d\n",
			cut, CountAbove(o.Before, cut), CountAbove(o.After, cut))
	}
	fmt.Fprintf(w, "SD before=%.4f after=%.4f; migrations=%d (completed %d), queries=%d\n",
		metrics.StdOf(o.Before), metrics.StdOf(o.After), o.Migrations, o.MigrationsCompleted, o.Queries)
}

// WriteFig10 renders the SD-versus-time series of Fig. 10.
func (o *RebalanceOutcome) WriteFig10(w io.Writer) {
	writeHeader(w, "Fig 10", fmt.Sprintf("utilization SD over time, %d servers, thr=%.3g, update=%s rebalance=%s",
		len(o.Before), o.Params.Threshold, fmtDur(o.Params.UpdateInterval), fmtDur(o.Params.RebalanceInterval)))
	for _, pt := range o.SD.Points() {
		fmt.Fprintf(w, "t=%-9s SD=%.4f\n", fmtDur(pt.T), pt.V)
	}
}

// WriteFig11 renders the demand-versus-satisfied series of Fig. 11.
func (o *RebalanceOutcome) WriteFig11(w io.Writer) {
	writeHeader(w, "Fig 11", fmt.Sprintf("resource demand vs actually satisfied, %d servers", len(o.Before)))
	demand := o.Demand.Points()
	sat := o.Satisfied.Points()
	for i := range demand {
		gap := demand[i].V - sat[i].V
		fmt.Fprintf(w, "t=%-9s demand=%.0f satisfied=%.0f gap=%.0f Mbps\n",
			fmtDur(demand[i].T), demand[i].V, sat[i].V, gap)
	}
}
