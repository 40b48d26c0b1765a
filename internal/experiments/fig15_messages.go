package experiments

import (
	"fmt"
	"io"
	"time"

	"vbundle/internal/audit"
	"vbundle/internal/core"
	"vbundle/internal/metrics"
	"vbundle/internal/obs"
	"vbundle/internal/rebalance"
)

// MessageOverheadParams configures the Fig. 15 experiment: the CDF of
// per-host messages (and bytes) per round while the whole v-Bundle stack —
// Pastry maintenance, the aggregation framework, and the rebalancer — runs.
type MessageOverheadParams struct {
	// Sizes are the ring sizes to sweep (paper: 512 and 1024).
	Sizes []int
	// Round is the measurement window; maintenance and aggregation are
	// aligned to it.
	Round time.Duration
	// VMsPerServer seeds a modest load so the rebalancer has work.
	VMsPerServer int
	// Seed drives the synthetic load.
	Seed int64
	// Parallelism caps the worker goroutines running the Sizes sweep
	// (0 = GOMAXPROCS, 1 = sequential). Every sweep point builds its own
	// full v-Bundle stack, so results are identical at any setting.
	Parallelism int
	// Shards is each sweep point's engine shard count, as in core.Options;
	// virtual-time results are identical at any setting.
	Shards int
	// Obs configures the flight recorder. Only the largest sweep point
	// records (its trace is the one the outcome keeps).
	Obs obs.Config
	// Audit configures the online invariant auditor; like the trace, only
	// the largest sweep point is audited.
	Audit audit.Config
}

func (p MessageOverheadParams) withDefaults() MessageOverheadParams {
	if len(p.Sizes) == 0 {
		p.Sizes = []int{512, 1024}
	}
	if p.Round == 0 {
		p.Round = time.Minute
	}
	if p.VMsPerServer == 0 {
		p.VMsPerServer = 5
	}
	return p
}

// MessageOverheadPoint is one ring size's per-host distribution.
type MessageOverheadPoint struct {
	Servers int
	// Msgs and KB are per-host messages and kilobytes sent per round.
	Msgs, KB metrics.CDF
}

// MessageOverheadOutcome is the Fig. 15 sweep.
type MessageOverheadOutcome struct {
	Params MessageOverheadParams
	Points []MessageOverheadPoint
	// Trace is the largest sweep point's flight recorder (nil when
	// Params.Obs is disabled).
	Trace *obs.Trace `json:"-"`
	// Audit is the largest sweep point's auditor (nil when Params.Audit is
	// disabled).
	Audit *audit.Auditor `json:"-"`
}

// RunMessageOverhead executes the sweep. Ring sizes are independent trials
// on private stacks, so they run concurrently under internal/parallel with
// results bit-identical to the sequential loop.
func RunMessageOverhead(p MessageOverheadParams) (*MessageOverheadOutcome, error) {
	p = p.withDefaults()
	points, trace, auditor, err := sweepSizes(p.Sizes, p.Parallelism, p.Obs, p.Audit,
		func(n int, tr *obs.Trace, au audit.Config) (MessageOverheadPoint, *audit.Auditor, error) {
			return messageOverheadPoint(p, n, tr, au)
		})
	if err != nil {
		return nil, err
	}
	return &MessageOverheadOutcome{Params: p, Points: points, Trace: trace, Audit: auditor}, nil
}

// messageOverheadPoint measures one ring size: the skewed-load run with a
// modest load, Pastry's ring maintenance beside the services, and one round
// counted once trees are built and roles have settled.
func messageOverheadPoint(p MessageOverheadParams, n int, tr *obs.Trace, au audit.Config) (MessageOverheadPoint, *audit.Auditor, error) {
	spec := ScaledSpec(n)
	spec.LANHop = time.Millisecond
	var pt MessageOverheadPoint
	_, auditor, err := skewedRun{
		opts: core.Options{
			Topology: spec,
			Seed:     p.Seed,
			Shards:   p.Shards,
			Trace:    tr,
			Rebalance: rebalance.Config{
				Threshold:         0.183,
				UpdateInterval:    p.Round,
				RebalanceInterval: 5 * p.Round,
			},
		},
		vmsPerServer: p.VMsPerServer,
		meanUtil:     0.6,
		spread:       0.4,
		loadSeed:     p.Seed + int64(n),
		audit:        au,
		// Pastry ring maintenance participates in the per-round budget.
		repair: func(vb *core.VBundle) func() {
			vb.Ring.StartMaintenance()
			return vb.Ring.StopMaintenance
		},
		window: func(vb *core.VBundle) {
			vb.RunFor(3 * p.Round)
			vb.Ring.Network().ResetCounters()
			vb.RunFor(p.Round)
			pt.Servers = vb.Topo.Servers()
			for _, c := range vb.Ring.Network().AllCounters() {
				pt.Msgs.Add(float64(c.MsgsSent))
				pt.KB.Add(float64(c.BytesSent) / 1024)
			}
		},
	}.run()
	return pt, auditor, err
}

// Report renders the Fig. 15 percentiles.
func (o *MessageOverheadOutcome) Report(w io.Writer) {
	writeHeader(w, "Fig 15", fmt.Sprintf("per-host overhead per %s round (maintenance + aggregation + v-Bundle)", o.Params.Round))
	fmt.Fprintf(w, "%-8s %-10s %-10s %-10s %-10s %-10s\n", "servers", "msg p50", "msg p90", "msg p99", "KB p50", "KB p90")
	for i := range o.Points {
		pt := &o.Points[i]
		fmt.Fprintf(w, "%-8d %-10.0f %-10.0f %-10.0f %-10.1f %-10.1f\n",
			pt.Servers,
			pt.Msgs.Quantile(0.5), pt.Msgs.Quantile(0.9), pt.Msgs.Quantile(0.99),
			pt.KB.Quantile(0.5), pt.KB.Quantile(0.9))
	}
	if len(o.Points) >= 2 {
		first, last := &o.Points[0], &o.Points[len(o.Points)-1]
		fmt.Fprintf(w, "p90 growth %d→%d servers: %.0f → %.0f msgs (paper: logarithmic growth, 90%% < 140 msg/round at 1024)\n",
			first.Servers, last.Servers, first.Msgs.Quantile(0.9), last.Msgs.Quantile(0.9))
	}
}
