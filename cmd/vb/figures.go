package main

import (
	"fmt"
	"io"
	"maps"
	"time"

	"vbundle/internal/experiments"
	"vbundle/internal/report"
)

// runPlacement regenerates Fig. 7 (v-Bundle's VM/PM mapping for 5000 VMs of
// five customers on ≈3000 servers), Fig. 8a (-waves 2: a second wave of
// 5000 VMs) and Fig. 8b (-waves 2 -engine greedy: the greedy baseline).
// With -dots the raw scatter (rack, slot, customer) is printed so the figure
// can be plotted externally.
func runPlacement(e *env, args []string) error {
	var p experiments.PlacementParams
	e.fs.IntVar(&p.Waves, "waves", 1, "provisioning waves (1 = Fig 7, 2 = Fig 8)")
	e.fs.IntVar(&p.VMsPerWavePerCustomer, "vms", 1000, "VMs per customer per wave")
	e.fs.IntVar(&p.Shards, "shards", 0, "engine shards per trial (0 = serial reference engine)")
	var (
		engine  = e.fs.String("engine", "dht", "placement engine: dht, greedy or random")
		servers = e.fs.Int("servers", 3000, "approximate server count")
		n       = e.fs.Int("trials", 1, "independent trials at seeds seed..seed+trials-1")
		workers = e.fs.Int("workers", 0, "concurrent trials (0 = all cores, 1 = sequential)")
		dots    = e.fs.Bool("dots", false, "print the raw scatter points")
		svgDir  = e.fs.String("svg", "", "directory to write SVG figures into")
		jsonOut = e.fs.String("json", "", "file to write the outcome as JSON")
	)
	if err := e.parseRun(args, &p.Seed, &p.RunConfig); err != nil {
		return err
	}
	var err error
	if p.Engine, err = parseEngine(*engine); err != nil {
		return err
	}
	if p.Spec, err = scaledSpec(*servers); err != nil {
		return err
	}
	ps, err := trials(p, *n, func(p *experiments.PlacementParams) *int64 { return &p.Seed })
	if err != nil {
		return err
	}
	outs, err := fanOut(ps, *workers, experiments.RunPlacement)
	if err != nil {
		return err
	}
	// The written trace, the figures and the scatter are the last trial's.
	for _, o := range outs {
		o.Report(e.stdout)
		e.collect(o.Artifacts)
	}
	out := outs[len(outs)-1]
	var payload any = out
	if len(outs) > 1 {
		payload = outs
	}
	if err := writeJSON(*jsonOut, payload); err != nil {
		return err
	}
	if err := e.writeSVGs(*svgDir, out.Charts()); err != nil {
		return err
	}
	if *dots {
		last := out.Waves[len(out.Waves)-1]
		e.printf("# rack slot customer\n")
		for _, pt := range last.Snapshot.Points() {
			e.printf("%g %g %s\n", pt.X, pt.Y, pt.Series)
		}
	}
	return nil
}

// runChurn is the VM-churn extension experiment: hours of Poisson VM
// arrivals and exponential departures for five customers, measuring whether
// placement locality survives continuous operation (v-Bundle's "peers
// adjacent in keys have space to grow or shrink" claim) versus the greedy
// baseline, which fragments permanently.
func runChurn(e *env, args []string) error {
	var p experiments.ChurnParams
	e.fs.Float64Var(&p.ArrivalsPerMinute, "arrivals-per-min", 2, "mean VM arrivals per minute per customer")
	e.fs.IntVar(&p.Shards, "shards", 0, "engine shards per trial (0 = serial reference engine)")
	var (
		engine   = e.fs.String("engine", "dht", "placement engine: dht, greedy or random")
		servers  = e.fs.Int("servers", 300, "approximate server count")
		hours    = e.fs.Float64("hours", 4, "virtual hours of churn")
		lifetime = e.fs.Float64("lifetime-min", 30, "mean VM lifetime in minutes")
		n        = e.fs.Int("trials", 1, "independent trials at seeds seed..seed+trials-1")
		workers  = e.fs.Int("workers", 0, "concurrent trials (0 = all cores, 1 = sequential)")
		jsonOut  = e.fs.String("json", "", "file to write the outcome as JSON")
	)
	if err := e.parseRun(args, &p.Seed, &p.RunConfig); err != nil {
		return err
	}
	var err error
	if p.Engine, err = parseEngine(*engine); err != nil {
		return err
	}
	if p.Spec, err = scaledSpec(*servers); err != nil {
		return err
	}
	p.MeanLifetime = time.Duration(*lifetime * float64(time.Minute))
	p.Duration = time.Duration(*hours * float64(time.Hour))
	ps, err := trials(p, *n, func(p *experiments.ChurnParams) *int64 { return &p.Seed })
	if err != nil {
		return err
	}
	outs, err := fanOut(ps, *workers, experiments.RunChurn)
	if err != nil {
		return err
	}
	// The written trace is the last trial's.
	var meanLoc float64
	for _, out := range outs {
		out.Report(e.stdout)
		meanLoc += out.MeanLocality
		e.collect(out.Artifacts)
	}
	var payload any = outs[0]
	if len(outs) > 1 {
		e.printf("mean same-rack fraction over %d trials: %.3f\n", len(outs), meanLoc/float64(len(outs)))
		payload = outs
	}
	return writeJSON(*jsonOut, payload)
}

// runRebalance regenerates the resource-shuffling experiments: Fig. 9
// (per-server utilization before/after rebalancing at two thresholds),
// Fig. 10 (utilization standard deviation over time at two cluster scales)
// and Fig. 11 (total demand versus actually satisfied bandwidth over time).
func runRebalance(e *env, args []string) error {
	var p experiments.RebalanceParams
	e.fs.IntVar(&p.VMsPerServer, "vms-per-server", 25, "VMs per server")
	e.fs.Float64Var(&p.Threshold, "threshold", 0, "rebalancing threshold (0 = figure default)")
	e.fs.IntVar(&p.Shards, "shards", 0, "engine shards per run (0 = serial reference engine)")
	var (
		fig      = e.fs.Int("fig", 9, "figure to regenerate: 9, 10 or 11")
		servers  = e.fs.Int("servers", 3000, "approximate server count")
		duration = e.fs.Int("duration", 75, "virtual experiment length in minutes")
		svgDir   = e.fs.String("svg", "", "directory to write SVG figures into")
		workers  = e.fs.Int("workers", 0, "concurrent sweep variants (0 = all cores, 1 = sequential)")
	)
	if err := e.parseRun(args, &p.Seed, &p.RunConfig); err != nil {
		return err
	}
	var err error
	if p.Spec, err = scaledSpec(*servers); err != nil {
		return err
	}
	p.Duration = time.Duration(*duration) * time.Minute

	// Sweeps run several variants, each labelled by a chart-name suffix; the
	// trace written at exit is the last variant's (pass -threshold to trace
	// a single Fig. 9 run).
	var variants []experiments.RebalanceParams
	var suffixes []string
	var write func(*experiments.RebalanceOutcome, io.Writer)
	switch *fig {
	case 9:
		// The paper shows two threshold settings side by side; the variants
		// are independent trials, so they run concurrently.
		thresholds := []float64{0.3, 0.1}
		if p.Threshold != 0 {
			thresholds = []float64{p.Threshold}
		}
		for _, thr := range thresholds {
			v := p
			v.Threshold = thr
			variants = append(variants, v)
			suffixes = append(suffixes, fmt.Sprintf("-thr%g", thr))
		}
		write = (*experiments.RebalanceOutcome).WriteFig9
	case 10:
		// Two scales, same threshold: convergence time is scale-free.
		for _, n := range []int{30, *servers} {
			v := p
			v.Spec = experiments.ScaledSpec(n)
			if v.Threshold == 0 {
				v.Threshold = 0.183
			}
			variants = append(variants, v)
			suffixes = append(suffixes, fmt.Sprintf("-n%d", n))
		}
		write = (*experiments.RebalanceOutcome).WriteFig10
	case 11:
		variants, suffixes = []experiments.RebalanceParams{p}, []string{""}
		write = (*experiments.RebalanceOutcome).WriteFig11
	default:
		return fmt.Errorf("unknown figure %d (want 9, 10 or 11)", *fig)
	}
	outs, err := fanOut(variants, *workers, experiments.RunRebalance)
	if err != nil {
		return err
	}
	charts := map[string]*report.Chart{}
	for i, out := range outs {
		write(out, e.stdout)
		for stem, chart := range out.Charts() {
			charts[stem+suffixes[i]] = chart
		}
		e.collect(out.Artifacts)
	}
	return e.writeSVGs(*svgDir, charts)
}

// runQoS regenerates the testbed QoS experiments: Fig. 12 (SIPp failed calls
// before, during and after v-Bundle's rebalancing) and Fig. 13 (the SIPp
// response-time CDF before versus after). -fig 0 (the default) prints both
// figures from a single run, which is how the paper gathered them.
func runQoS(e *env, args []string) error {
	var p experiments.QoSParams
	e.fs.IntVar(&p.Hosts, "hosts", 15, "physical hosts")
	e.fs.IntVar(&p.VMsPerHost, "vms-per-host", 15, "VMs per host")
	e.fs.IntVar(&p.Shards, "shards", 0, "engine shards (0 = serial reference engine)")
	var (
		fig     = e.fs.Int("fig", 0, "figure to print: 12, 13, or 0 for both")
		svgDir  = e.fs.String("svg", "", "directory to write SVG figures into")
		jsonOut = e.fs.String("json", "", "file to write the outcome as JSON")
	)
	if err := e.parseRun(args, &p.Seed, &p.RunConfig); err != nil {
		return err
	}
	if *fig != 0 && *fig != 12 && *fig != 13 {
		return fmt.Errorf("unknown figure %d (want 12, 13 or 0)", *fig)
	}
	out, err := experiments.RunQoS(p)
	if err != nil {
		return err
	}
	e.collect(out.Artifacts)
	if *fig != 13 {
		out.WriteFig12(e.stdout)
	}
	if *fig != 12 {
		out.WriteFig13(e.stdout)
	}
	if err := writeJSON(*jsonOut, out); err != nil {
		return err
	}
	return e.writeSVGs(*svgDir, out.Charts())
}

// runOverhead regenerates the overhead analysis (§V.C): Table I (computation
// overhead of v-Bundle's pub-sub operations), Fig. 14 (leaf-to-root
// aggregation latency versus ring size) and Fig. 15 (the CDF of per-host
// messages per round). -fig 0 (the default) prints everything.
func runOverhead(e *env, args []string) error {
	var (
		agg experiments.AggLatencyParams
		t1  experiments.Table1Params
	)
	e.fs.IntVar(&t1.Iterations, "iterations", 1000, "Table I iterations per operation")
	e.fs.IntVar(&agg.Parallelism, "workers", 0, "concurrent sweep points (0 = all cores, 1 = sequential)")
	e.fs.IntVar(&agg.Shards, "shards", 0, "engine shards per run (0 = serial reference engine)")
	var (
		fig    = e.fs.Int("fig", 0, "what to print: 14, 15, 1 (Table I), or 0 for all")
		maxN   = e.fs.Int("max-servers", 1024, "largest ring size to sweep")
		minN   = e.fs.Int("min-servers", 16, "smallest ring size to sweep (CI uses min=max to gate one big rung without paying for the whole ladder)")
		svgDir = e.fs.String("svg", "", "directory to write SVG figures into")
	)
	if err := e.parseRun(args, &agg.Seed, &agg.RunConfig); err != nil {
		return err
	}
	if *fig != 0 && *fig != 1 && *fig != 14 && *fig != 15 {
		return fmt.Errorf("unknown figure %d (want 1, 14, 15 or 0)", *fig)
	}
	var big []int
	for n := 16; n <= *maxN; n *= 2 {
		if n < *minN {
			continue
		}
		agg.Sizes = append(agg.Sizes, n)
		if n >= 256 {
			big = append(big, n)
		}
	}
	if len(agg.Sizes) == 0 {
		return fmt.Errorf("empty sweep: no power of two in [%d, %d]", *minN, *maxN)
	}
	if len(big) == 0 {
		big = agg.Sizes
	}
	charts := map[string]*report.Chart{}

	if *fig == 0 || *fig == 1 {
		t1.Servers, t1.Seed = min(512, *maxN), agg.Seed
		out, err := experiments.RunTable1(t1)
		if err != nil {
			return err
		}
		out.Report(e.stdout)
	}
	if *fig == 0 || *fig == 14 {
		out, err := experiments.RunAggLatency(agg)
		if err != nil {
			return err
		}
		out.Report(e.stdout)
		e.collect(out.Artifacts)
		maps.Copy(charts, out.Charts())
	}
	if *fig == 0 || *fig == 15 {
		out, err := experiments.RunMessageOverhead(experiments.MessageOverheadParams{
			Sizes: big, Seed: agg.Seed, Parallelism: agg.Parallelism, RunConfig: agg.RunConfig})
		if err != nil {
			return err
		}
		out.Report(e.stdout)
		e.collect(out.Artifacts)
		maps.Copy(charts, out.Charts())
	}
	return e.writeSVGs(*svgDir, charts)
}
