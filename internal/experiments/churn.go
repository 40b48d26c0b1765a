package experiments

import (
	"fmt"
	"io"
	"time"

	"vbundle/internal/audit"
	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/metrics"
	"vbundle/internal/obs"
	"vbundle/internal/parallel"
	"vbundle/internal/placement"
	"vbundle/internal/topology"
)

// ChurnParams configures the VM-churn experiment, which extends the Fig. 8
// story to continuous operation: VMs arrive (Poisson) and depart
// (exponential lifetimes) for hours, and the question is whether
// v-Bundle's placement keeps each customer's footprint compact as holes
// open and close — the paper's "peers adjacent in keys have space to grow
// or shrink" argument — where greedy fragments permanently.
type ChurnParams struct {
	// Spec is the datacenter.
	Spec topology.Spec
	// Customers to run.
	Customers []string
	// InitialVMsPerCustomer seeds the system before churn starts.
	InitialVMsPerCustomer int
	// ArrivalsPerMinute is each customer's mean VM arrival rate.
	ArrivalsPerMinute float64
	// MeanLifetime is the mean VM lifetime (exponential).
	MeanLifetime time.Duration
	// Duration is how long churn runs.
	Duration time.Duration
	// SampleEvery is the locality sampling period.
	SampleEvery time.Duration
	// Engine selects the placement algorithm.
	Engine core.EngineKind
	// ReservationMbps is each VM's bandwidth reservation.
	ReservationMbps float64
	// Seed drives arrivals and lifetimes.
	Seed int64
	// Shards is the engine's shard count, as in core.Options; virtual-time
	// results are identical at any setting.
	Shards int
	// Obs configures the flight recorder for this run. The zero value
	// records nothing; recording never changes experiment metrics.
	Obs obs.Config
	// Audit configures the online invariant auditor (Every <= 0 disables).
	Audit audit.Config
}

func (p ChurnParams) withDefaults() ChurnParams {
	if p.Spec.Racks == 0 {
		p.Spec = ScaledSpec(300)
	}
	if len(p.Customers) == 0 {
		p.Customers = Customers
	}
	if p.InitialVMsPerCustomer == 0 {
		p.InitialVMsPerCustomer = 60
	}
	if p.ArrivalsPerMinute == 0 {
		p.ArrivalsPerMinute = 2
	}
	if p.MeanLifetime == 0 {
		p.MeanLifetime = 30 * time.Minute
	}
	if p.Duration == 0 {
		p.Duration = 4 * time.Hour
	}
	if p.SampleEvery == 0 {
		p.SampleEvery = 10 * time.Minute
	}
	if p.Engine == 0 {
		p.Engine = core.EngineDHT
	}
	if p.ReservationMbps == 0 {
		p.ReservationMbps = 100
	}
	return p
}

// ChurnOutcome reports locality under continuous arrivals and departures.
type ChurnOutcome struct {
	Params ChurnParams
	Engine string
	// Locality samples the same-rack chatting fraction over time.
	Locality metrics.TimeSeries
	// VMCount samples the live VM population.
	VMCount metrics.TimeSeries
	// Arrived, Departed and Rejected count lifecycle events.
	Arrived, Departed, Rejected int
	// MeanLocality averages the sampled locality over the whole run.
	MeanLocality float64
	// Trace is the run's flight recorder (nil when Params.Obs is disabled).
	Trace *obs.Trace `json:"-"`
	// Audit is the run's auditor (nil when Params.Audit is disabled).
	Audit *audit.Auditor `json:"-"`
}

// RunChurn executes the churn experiment.
func RunChurn(p ChurnParams) (*ChurnOutcome, error) {
	p = p.withDefaults()
	trace := p.Obs.New()
	vb, err := core.New(core.Options{
		Topology: p.Spec,
		Seed:     p.Seed,
		Shards:   p.Shards,
		Engine:   p.Engine,
		Trace:    trace,
	})
	if err != nil {
		return nil, err
	}
	out := &ChurnOutcome{Params: p, Engine: vb.Placer.Name(), Trace: trace}
	out.Audit = vb.AttachAudit(p.Audit)
	rng := vb.Engine.Rand()
	rsv := cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: p.ReservationMbps}
	lim := cluster.Resources{CPU: 2, MemMB: 128, BandwidthMbps: p.ReservationMbps * 2}

	scheduleDeath := func(id cluster.VMID) {
		life := time.Duration(rng.ExpFloat64() * float64(p.MeanLifetime))
		vb.Engine.AfterGlobal(life, func() {
			if vb.Cluster.Destroy(id) {
				out.Departed++
			}
		})
	}
	arrive := func(customer string, withLifetime bool) {
		vm, err := vb.Cluster.CreateVM(customer, rsv, lim)
		if err != nil {
			out.Rejected++
			return
		}
		vb.Placer.Place(vm, func(_ placement.Result, err error) {
			if err != nil {
				out.Rejected++
				vb.Cluster.Destroy(vm.ID)
				return
			}
			out.Arrived++
			if withLifetime {
				scheduleDeath(vm.ID)
			}
		})
	}

	// Seed the initial population (these VMs churn too). Settle for a
	// bounded minute of virtual time — a full drain would also execute the
	// seeds' future deaths and fast-forward the clock.
	for i := 0; i < p.InitialVMsPerCustomer; i++ {
		for _, customer := range p.Customers {
			arrive(customer, true)
		}
	}
	vb.RunFor(time.Minute)

	// Poisson arrivals per customer: exponential inter-arrival gaps.
	for _, customer := range p.Customers {
		customer := customer
		var next func()
		next = func() {
			if vb.Engine.Now() >= p.Duration {
				return
			}
			arrive(customer, true)
			gap := time.Duration(rng.ExpFloat64() * float64(time.Minute) / p.ArrivalsPerMinute)
			vb.Engine.AfterGlobal(gap, next)
		}
		gap := time.Duration(rng.ExpFloat64() * float64(time.Minute) / p.ArrivalsPerMinute)
		vb.Engine.AfterGlobal(gap, next)
	}

	sampler := vb.Engine.EveryGlobal(p.SampleEvery, func() {
		q := placement.Quality(vb.Cluster)
		out.Locality.Add(vb.Engine.Now(), q.SameRackPairFraction())
		out.VMCount.Add(vb.Engine.Now(), float64(vb.Cluster.NumVMs()))
	})
	vb.RunFor(p.Duration)
	sampler.Stop()

	var sum float64
	for _, pt := range out.Locality.Points() {
		sum += pt.V
	}
	if n := out.Locality.N(); n > 0 {
		out.MeanLocality = sum / float64(n)
	}
	return out, nil
}

// RunChurnTrials repeats the churn experiment once per seed across workers
// goroutines (0 = GOMAXPROCS, 1 = sequential), for confidence intervals on
// the locality-under-churn claim. Outcomes are ordered by seed index.
func RunChurnTrials(p ChurnParams, seeds []int64, workers int) ([]*ChurnOutcome, error) {
	return parallel.Map(len(seeds), workers, func(i int) (*ChurnOutcome, error) {
		q := p
		q.Seed = seeds[i]
		return RunChurn(q)
	})
}

// Report renders the churn outcome.
func (o *ChurnOutcome) Report(w io.Writer) {
	writeHeader(w, "Churn", fmt.Sprintf("placement locality under VM churn, engine=%s, %s run",
		o.Engine, o.Params.Duration))
	fmt.Fprintf(w, "arrived=%d departed=%d rejected=%d\n", o.Arrived, o.Departed, o.Rejected)
	loc := o.Locality.Points()
	cnt := o.VMCount.Points()
	for i := range loc {
		fmt.Fprintf(w, "t=%-9s liveVMs=%-6.0f sameRackFraction=%.3f\n",
			fmtDur(loc[i].T), cnt[i].V, loc[i].V)
	}
	fmt.Fprintf(w, "mean same-rack fraction over run: %.3f\n", o.MeanLocality)
}
