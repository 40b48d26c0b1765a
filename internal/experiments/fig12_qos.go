package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/metrics"
	"vbundle/internal/rebalance"
	"vbundle/internal/topology"
	"vbundle/internal/workload"
)

// QoSParams configures the §V testbed reproduction: 15 hosts, 225–300 VMs,
// one SIPp call generator competing with Iperf interference traffic on the
// same host until v-Bundle relocates the aggressors.
type QoSParams struct {
	// Hosts is the number of physical servers (paper: 15, across 4 edge
	// switches).
	Hosts int
	// VMsPerHost fills the hosts with VMs (paper: 225–300 total ⇒ 15–20
	// per host).
	VMsPerHost int
	// Duration is the experiment length (paper plots 100–500 s).
	Duration time.Duration
	// Seed drives jitter.
	Seed int64
	RunConfig
}

func (p QoSParams) withDefaults() QoSParams {
	if p.Hosts == 0 {
		p.Hosts = 15
	}
	if p.VMsPerHost == 0 {
		p.VMsPerHost = 15 // 225 VMs
	}
	if p.Duration == 0 {
		p.Duration = 500 * time.Second
	}
	return p
}

func (p QoSParams) check() error {
	return errors.Join(notNegative("Hosts", p.Hosts), notNegative("VMsPerHost", p.VMsPerHost),
		notNegative("Duration", p.Duration))
}

// The testbed's fixed settings. iperfOnSIPpHost Iperf VMs offering
// iperfMbps each share the SIPp host and create the bottleneck. v-Bundle
// runs with threshold 0.1 and minute-scale intervals, so rebalancing engages
// around t≈300 s as in Fig. 12. SIPp is evaluated every sippStep.
const (
	iperfMbps            = 120
	iperfOnSIPpHost      = 14
	qosThreshold         = 0.1
	qosUpdateInterval    = time.Minute
	qosRebalanceInterval = 5 * time.Minute
	sippStep             = 5 * time.Second
)

// QoSOutcome carries the Fig. 12/13 series.
type QoSOutcome struct {
	Params QoSParams
	// FailedCalls is the per-sample failed-call count over time (Fig. 12).
	FailedCalls metrics.TimeSeries
	// RTBefore and RTAfter are response-time CDFs before rebalancing
	// started and after it completed (Fig. 13).
	RTBefore, RTAfter metrics.CDF
	// FirstMigrationAt and LastMigrationAt bracket the "during
	// rebalancing" phase.
	FirstMigrationAt, LastMigrationAt time.Duration
	// Migrations counts completed relocations.
	Migrations int
	// TotalOffered and TotalFailed are SIPp call totals.
	TotalOffered, TotalFailed int
	Artifacts
}

// RunQoS executes the testbed reproduction.
func RunQoS(p QoSParams) (*QoSOutcome, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	// 15 hosts over 4 edge switches, as in §IV's hardware description.
	spec := topology.Spec{
		Racks:            4,
		ServersPerRack:   (p.Hosts + 3) / 4,
		RacksPerPod:      4,
		NICMbps:          1000,
		Oversubscription: 8,
		LANHop:           time.Millisecond,
		LocalDelivery:    50 * time.Microsecond,
	}
	vb, art, err := p.build(core.Options{
		Topology: spec,
		Seed:     p.Seed,
		Rebalance: rebalance.Config{
			Threshold:         qosThreshold,
			UpdateInterval:    qosUpdateInterval,
			RebalanceInterval: qosRebalanceInterval,
			// The congested host must drain within one round for QoS to
			// recover on the paper's 300–375 s timeline.
			MaxShedsPerRound: 12,
		},
	})
	if err != nil {
		return nil, err
	}

	out := &QoSOutcome{Params: p, Artifacts: art}
	sipp := workload.NewSIPp(p.Seed + 7)

	// The SIPp VM: modest reservation, generous ceiling — QoS depends on
	// borrowing idle bandwidth.
	rsvSIPp := cluster.Resources{CPU: 1, MemMB: 128, BandwidthMbps: 30}
	limSIPp := cluster.Resources{CPU: 4, MemMB: 128, BandwidthMbps: 400}
	sippVM, err := vb.Cluster.CreateVM("tenant", rsvSIPp, limSIPp)
	if err != nil {
		return nil, err
	}
	if err := vb.Cluster.Place(sippVM, 0); err != nil {
		return nil, err
	}
	vb.Workloads.Attach(sippVM.ID, sipp)

	// Interference, booted unevenly as in §V.B: the SIPp host is swamped by
	// aggressive Iperf streams; half the remaining hosts run light streams
	// (they become receivers), the other half a medium mix (neutral).
	rsvIperf := cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: 20}
	limIperf := cluster.Resources{CPU: 2, MemMB: 128, BandwidthMbps: 1000}
	addIperf := func(host int, n int, mbps float64) error {
		for v := 0; v < n; v++ {
			vm, err := vb.Cluster.CreateVM("tenant", rsvIperf, limIperf)
			if err != nil {
				return err
			}
			if err := vb.Cluster.Place(vm, host); err != nil {
				return err
			}
			vb.Workloads.Attach(vm.ID, &workload.Iperf{TargetMbps: mbps})
		}
		return nil
	}
	if err := addIperf(0, iperfOnSIPpHost, iperfMbps); err != nil {
		return nil, err
	}
	for h := 1; h < p.Hosts; h++ {
		mbps := 12.0 // light half: ≈0.18 utilization, future receivers
		if h > p.Hosts/2 {
			mbps = 33 // medium half: ≈0.5 utilization, neutral
		}
		if err := addIperf(h, p.VMsPerHost, mbps); err != nil {
			return nil, err
		}
	}

	// Drive SIPp each sample: evaluate failures/RT under the bandwidth the
	// SIPp VM can actually obtain on its current host (its shaper headroom,
	// which shrinks while co-located Iperf streams hog the NIC).
	vb.Engine.EveryGlobal(sippStep, func() {
		avail := vb.AvailableBandwidth(sippVM.ID)
		res := sipp.Step(vb.Now(), sippStep, avail)
		out.FailedCalls.Add(vb.Now(), float64(res.FailedCalls))
		migrating := out.FirstMigrationAt != 0 && out.LastMigrationAt == 0
		for _, rt := range res.ResponseTimesMs {
			switch {
			case out.FirstMigrationAt == 0:
				out.RTBefore.Add(rt)
			case !migrating:
				out.RTAfter.Add(rt)
			}
		}
	})

	// Track the rebalancing window through migration stats.
	vb.Engine.EveryGlobal(time.Second, func() {
		st := vb.Migration.Stats()
		if st.Completed > 0 && out.FirstMigrationAt == 0 {
			out.FirstMigrationAt = vb.Now()
		}
		if st.Completed > out.Migrations {
			out.Migrations = st.Completed
			out.LastMigrationAt = 0 // still migrating; close the window below
		} else if out.FirstMigrationAt != 0 && out.LastMigrationAt == 0 && vb.Now() > out.FirstMigrationAt+30*time.Second {
			out.LastMigrationAt = vb.Now()
		}
	})

	vb.Workloads.Start(sippStep)
	vb.StartServices()
	vb.RunFor(p.Duration)
	vb.StopServices()
	vb.Workloads.Stop()

	out.TotalOffered, out.TotalFailed = sipp.Totals()
	if out.FirstMigrationAt != 0 && out.LastMigrationAt == 0 {
		out.LastMigrationAt = vb.Now()
	}
	return out, nil
}

// WriteFig12 renders the failed-call series.
func (o *QoSOutcome) WriteFig12(w io.Writer) {
	writeHeader(w, "Fig 12", fmt.Sprintf("SIPp failed calls, %d hosts, rebalancing window %.0fs–%.0fs",
		o.Params.Hosts, o.FirstMigrationAt.Seconds(), o.LastMigrationAt.Seconds()))
	for _, pt := range o.FailedCalls.Points() {
		phase := "before"
		switch {
		case o.FirstMigrationAt != 0 && pt.T > o.LastMigrationAt:
			phase = "after"
		case o.FirstMigrationAt != 0 && pt.T >= o.FirstMigrationAt:
			phase = "during"
		}
		fmt.Fprintf(w, "t=%4.0fs failedCalls=%-6.0f (%s)\n", pt.T.Seconds(), pt.V, phase)
	}
	fmt.Fprintf(w, "total calls offered=%d failed=%d, migrations=%d\n",
		o.TotalOffered, o.TotalFailed, o.Migrations)
}

// WriteFig13 renders the response-time CDFs before and after rebalancing.
func (o *QoSOutcome) WriteFig13(w io.Writer) {
	writeHeader(w, "Fig 13", "SIPp response-time CDF before vs after rebalancing")
	fmt.Fprintf(w, "P(RT <= 10ms): before=%.3f after=%.3f (paper: 0.10 -> ≈0.945)\n",
		o.RTBefore.At(10), o.RTAfter.At(10))
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		fmt.Fprintf(w, "q%.0f%%: before=%.1fms after=%.1fms\n",
			q*100, o.RTBefore.Quantile(q), o.RTAfter.Quantile(q))
	}
}
