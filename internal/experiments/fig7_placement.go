package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"vbundle/internal/core"
	"vbundle/internal/metrics"
	"vbundle/internal/placement"
	"vbundle/internal/topology"
)

// PlacementParams configures the Fig. 7 / Fig. 8 placement experiments:
// waves of VM instantiations for five customers on a ≈3000-server
// datacenter, placed by v-Bundle's DHT engine or the greedy baseline.
type PlacementParams struct {
	// Spec is the datacenter; defaults to the paper's 3000-server layout.
	Spec topology.Spec
	// VMsPerWavePerCustomer is how many VMs each customer boots per wave.
	// Fig. 7 uses 1000 (5000 total); Fig. 8 adds a second wave.
	VMsPerWavePerCustomer int
	// Waves is the number of provisioning waves (Fig. 7: 1; Fig. 8: 2).
	Waves int
	// Engine selects the placement algorithm (Fig. 8a: DHT, 8b: greedy).
	Engine core.EngineKind
	// Seed drives all randomness.
	Seed int64
	RunConfig
}

func (p PlacementParams) withDefaults() PlacementParams {
	if p.Spec.Racks == 0 {
		p.Spec = PaperSpec()
	}
	if p.VMsPerWavePerCustomer == 0 {
		p.VMsPerWavePerCustomer = 1000
	}
	if p.Waves == 0 {
		p.Waves = 1
	}
	if p.Engine == 0 {
		p.Engine = core.EngineDHT
	}
	return p
}

func (p PlacementParams) check() error {
	return errors.Join(notNegative("VMsPerWavePerCustomer", p.VMsPerWavePerCustomer), notNegative("Waves", p.Waves))
}

// WaveOutcome captures the state after one provisioning wave.
type WaveOutcome struct {
	// Snapshot is the Fig. 7/8 scatter: (rack, slot) dots per customer.
	Snapshot *metrics.Scatter
	// Quality is the locality report for the placement so far.
	Quality placement.QualityReport
	// Placed and Failed count this wave's outcomes.
	Placed, Failed int
	// MeanHops is the mean boot-query cost this wave (DHT only).
	MeanHops float64
	// HopP50 and HopP99 are quantiles of the cumulative per-placement hop
	// distribution up to this wave (DHT only).
	HopP50, HopP99 int
}

// PlacementOutcome is the result of RunPlacement.
type PlacementOutcome struct {
	Params PlacementParams
	Waves  []WaveOutcome
	Engine string
	Artifacts
}

// RunPlacement executes the placement experiment.
func RunPlacement(p PlacementParams) (*PlacementOutcome, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	vb, art, err := p.build(core.Options{Topology: p.Spec, Seed: p.Seed, Engine: p.Engine})
	if err != nil {
		return nil, err
	}
	out := &PlacementOutcome{Params: p, Engine: vb.Placer.Name(), Artifacts: art}

	for wave := 0; wave < p.Waves; wave++ {
		wo := WaveOutcome{}
		var hops, placed int
		// Round-robin across customers so arrivals interleave, as a real
		// multi-tenant cloud sees them.
		for i := 0; i < p.VMsPerWavePerCustomer; i++ {
			for _, customer := range Customers {
				_, res, err := vb.BootVM(customer, bootRsv, bootLim)
				if err != nil {
					wo.Failed++
					continue
				}
				placed++
				hops += res.Hops
			}
		}
		wo.Placed = placed
		if placed > 0 {
			wo.MeanHops = float64(hops) / float64(placed)
		}
		if dht, ok := vb.Placer.(*placement.DHT); ok {
			wo.HopP50 = dht.HopQuantile(0.50)
			wo.HopP99 = dht.HopQuantile(0.99)
		}
		wo.Snapshot = placement.Snapshot(vb.Cluster)
		wo.Quality = vb.PlacementQuality()
		out.Waves = append(out.Waves, wo)
	}
	return out, nil
}

// Report renders the outcome in the paper's terms: per-customer rack
// spans, chatting-pair locality, and the traffic-tier breakdown that stands
// in for the visual scatter.
func (o *PlacementOutcome) Report(w io.Writer) {
	fig := "Fig 7"
	if o.Params.Waves > 1 {
		if o.Engine == "greedy" {
			fig = "Fig 8b"
		} else {
			fig = "Fig 8a"
		}
	} else if o.Engine == "greedy" {
		fig = "Fig 7 (greedy baseline)"
	}
	writeHeader(w, fig, fmt.Sprintf("VM/PM mappings, engine=%s, %d wave(s) × %d VMs × %d customers",
		o.Engine, o.Params.Waves, o.Params.VMsPerWavePerCustomer, len(Customers)))
	for wi, wave := range o.Waves {
		fmt.Fprintf(w, "after wave %d: placed=%d failed=%d meanQueryHops=%.1f hopP50=%d hopP99=%d\n",
			wi+1, wave.Placed, wave.Failed, wave.MeanHops, wave.HopP50, wave.HopP99)
		customers := make([]string, 0, len(wave.Quality.PerCustomer))
		for c := range wave.Quality.PerCustomer {
			customers = append(customers, c)
		}
		sort.Strings(customers)
		for _, c := range customers {
			cq := wave.Quality.PerCustomer[c]
			fmt.Fprintf(w, "  customer %-10s vms=%-5d racksSpanned=%-3d sameRackPairs=%.3f\n",
				c, cq.VMs, cq.RacksSpanned, cq.SameRackPairFraction)
		}
		load := wave.Quality.Load
		fmt.Fprintf(w, "  chatting traffic: local=%.0f rack=%.0f pod=%.0f bisection=%.0f Mbps (cross-rack %.1f%%)\n",
			load.IntraServerMbps, load.IntraRackMbps, load.IntraPodMbps, load.BisectionMbps,
			100*load.CrossRackMbps()/nonZero(load.TotalMbps()))
		fmt.Fprintf(w, "  overall same-rack chatting fraction: %.3f\n", wave.Quality.SameRackPairFraction())
	}
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
