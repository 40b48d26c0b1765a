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
	"vbundle/internal/obs"
	"vbundle/internal/parallel"
	"vbundle/internal/topology"
)

// PaperSpec returns the simulated datacenter of §IV: ≈3000 servers across
// 70 racks, 1 Gbps NICs, 8:1 oversubscription.
func PaperSpec() topology.Spec { return topology.DefaultSpec() }

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

// sweepSizes measures one point per ring size across workers goroutines
// (0 = GOMAXPROCS, 1 = sequential), in size order. Only the largest size
// records and is audited — its trace and auditor are the ones returned —
// since tracing the smaller points would retain their whole stacks (the
// registry gauges hold the network) for nothing.
func sweepSizes[P any](sizes []int, workers int, oc obs.Config, au audit.Config,
	point func(n int, tr *obs.Trace, au audit.Config) (P, *audit.Auditor, error)) ([]P, *obs.Trace, *audit.Auditor, error) {
	largest := 0
	for i, n := range sizes {
		if n > sizes[largest] {
			largest = i
		}
	}
	trace := oc.New()
	var auditor *audit.Auditor
	points, err := parallel.Map(len(sizes), workers, func(i int) (P, error) {
		if i != largest {
			pt, _, err := point(sizes[i], nil, audit.Config{})
			return pt, err
		}
		pt, a, err := point(sizes[i], trace, au)
		auditor = a
		return pt, err
	})
	return points, trace, auditor, err
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
