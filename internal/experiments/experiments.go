// Package experiments contains one reproduction harness per table and
// figure of the paper's evaluation (§IV simulated experiments, §V testbed
// experiments). Each harness builds the full v-Bundle stack through the
// core package, runs the workload the paper describes, and renders the same
// rows or series the paper reports. The command-line tools under cmd/ and
// the benchmark suite in bench_test.go are thin wrappers over these
// harnesses.
package experiments

import (
	"fmt"
	"io"
	"time"

	"vbundle/internal/audit"
	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/obs"
	"vbundle/internal/parallel"
	"vbundle/internal/topology"
)

// ScaledSpec returns a topology with approximately the requested number of
// servers, keeping the paper's rack width where possible. Small counts get
// proportionally smaller racks so experiments remain meaningful.
func ScaledSpec(servers int) topology.Spec {
	spec := topology.DefaultSpec()
	perRack := spec.ServersPerRack
	if servers < 4*perRack {
		perRack = (servers + 3) / 4
		if perRack < 1 {
			perRack = 1
		}
	}
	racks := (servers + perRack - 1) / perRack
	if racks < 1 {
		racks = 1
	}
	spec.ServersPerRack = perRack
	spec.Racks = racks
	if spec.RacksPerPod > racks {
		spec.RacksPerPod = racks
	}
	return spec
}

// RunConfig is how a run executes and who watches it. Nothing in it moves a
// virtual-time value: a run prints the same figures at any setting.
type RunConfig struct {
	// Shards is the engine's shard count, as in core.Options.
	Shards int
	// Obs configures the flight recorder. The zero value records nothing.
	Obs obs.Config
	// Audit configures the online invariant auditor (Every <= 0 disables);
	// its sweeps only read the stack.
	Audit audit.Config
}

// Artifacts is what a run leaves besides its figures.
type Artifacts struct {
	// Trace is the run's flight recorder (nil when Obs is disabled).
	Trace *obs.Trace `json:"-"`
	// Audit is the run's auditor (nil when Audit is disabled).
	Audit *audit.Auditor `json:"-"`
}

// build makes the run's recorder, the stack opts describes on c's shards,
// and the auditor that watches it.
func (c RunConfig) build(opts core.Options) (*core.VBundle, Artifacts, error) {
	opts.Shards, opts.Trace = c.Shards, c.Obs.New()
	vb, err := core.New(opts)
	if err != nil {
		return nil, Artifacts{}, err
	}
	return vb, Artifacts{Trace: opts.Trace, Audit: vb.AttachAudit(c.Audit)}, nil
}

// sweepSizes measures one point per ring size across workers goroutines
// (0 = GOMAXPROCS, 1 = sequential), in size order; a size below one is an
// error. Only the largest size records and is audited — its artifacts are
// the ones returned — since tracing the smaller points would retain their
// whole stacks (the registry gauges hold the network) for nothing.
func sweepSizes[P any](sizes []int, workers int, c RunConfig,
	point func(n int, c RunConfig) (P, Artifacts, error)) ([]P, Artifacts, error) {
	largest := 0
	for i, n := range sizes {
		if n < 1 {
			return nil, Artifacts{}, fmt.Errorf("experiments: Sizes holds %d, want ring sizes of at least 1", n)
		}
		if n > sizes[largest] {
			largest = i
		}
	}
	var art Artifacts
	points, err := parallel.Map(len(sizes), workers, func(i int) (P, error) {
		if i != largest {
			pt, _, err := point(sizes[i], RunConfig{Shards: c.Shards})
			return pt, err
		}
		pt, a, err := point(sizes[i], c)
		art = a
		return pt, err
	})
	return points, art, err
}

// notNegative is the error of a …Params field below zero (or NaN), nil
// for any other value.
func notNegative[T ~int | ~int64 | ~float64](field string, v T) error {
	if v >= 0 {
		return nil
	}
	return fmt.Errorf("experiments: %s = %v, must not be negative", field, v)
}

// Customers are the five tenants of Fig. 7/8.
var Customers = []string{"Accolade", "Beenox", "Crystal", "Deck13", "Epyx"}

// Every VM the placement, churn and serving experiments boot reserves
// bootRsv, 100 Mbps of bandwidth, and may burst to bootLim.
var (
	bootRsv = cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: 100}
	bootLim = cluster.Resources{CPU: 2, MemMB: 128, BandwidthMbps: 200}
)

// writeHeader prints a uniform experiment banner.
func writeHeader(w io.Writer, id, title string) {
	fmt.Fprintf(w, "== %s: %s ==\n", id, title)
}

// fmtDur prints a duration in minutes with one decimal, the unit of the
// paper's time axes.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1fmin", d.Minutes())
}
