package placement

import (
	"math/rand"

	"vbundle/internal/cluster"
	"vbundle/internal/metrics"
	"vbundle/internal/topology"
)

// CustomerQuality quantifies how tightly one customer's VMs are packed.
type CustomerQuality struct {
	// VMs is the number of placed VMs.
	VMs int
	// RacksSpanned is the number of distinct racks hosting them.
	RacksSpanned int
	// SameRackPairFraction is the fraction of sampled same-customer VM
	// pairs that share a rack. Pairs are sampled uniformly, matching the
	// paper's assumption that any two VMs of a customer may chat.
	SameRackPairFraction float64
}

// pairSamplesPerVM bounds the pair sampling used by Quality.
const pairSamplesPerVM = 20

// QualityReport summarizes placement locality across all customers — the
// quantitative reading of the paper's Fig. 7/8 scatter plots.
type QualityReport struct {
	PerCustomer map[string]CustomerQuality
	// Load classifies the synthetic chatting traffic by network tier.
	Load topology.LoadReport
}

// SameRackPairFraction aggregates the chatting-pair locality over all
// customers, weighted by pair count.
func (r QualityReport) SameRackPairFraction() float64 {
	var pairs, same float64
	for _, cq := range r.PerCustomer {
		n := float64(cq.VMs)
		if cq.VMs < 2 {
			continue
		}
		pairs += n
		same += cq.SameRackPairFraction * n
	}
	if pairs == 0 {
		return 0
	}
	return same / pairs
}

// ChattingFlows builds the synthetic traffic matrix of the paper's
// assumption that a customer's VMs talk mostly to each other: every placed
// VM streams perPairMbps to k uniformly chosen same-customer peers. The
// sampling is deterministic for a given placement.
func ChattingFlows(cl *cluster.Cluster, perPairMbps float64, k int) []topology.Flow {
	if k <= 0 {
		k = 1
	}
	rng := rand.New(rand.NewSource(1))
	var flows []topology.Flow
	for _, customer := range cl.Customers() {
		vms := placedVMs(cl, customer)
		n := len(vms)
		if n < 2 {
			continue
		}
		for _, vm := range vms {
			src, _ := cl.LocationOf(vm.ID)
			for j := 0; j < k && j < n-1; j++ {
				idx := rng.Intn(n)
				if vms[idx].ID == vm.ID {
					idx = (idx + 1) % n
				}
				dst, _ := cl.LocationOf(vms[idx].ID)
				flows = append(flows, topology.Flow{Src: src, Dst: dst, Mbps: perPairMbps})
			}
		}
	}
	return flows
}

func placedVMs(cl *cluster.Cluster, customer string) []*cluster.VM {
	var vms []*cluster.VM
	for _, vm := range cl.VMsOf(customer) {
		if _, placed := cl.LocationOf(vm.ID); placed {
			vms = append(vms, vm)
		}
	}
	return vms
}

// Quality computes the locality report for the cluster's current placement.
func Quality(cl *cluster.Cluster) QualityReport {
	topo := cl.Topology()
	rep := QualityReport{PerCustomer: make(map[string]CustomerQuality)}
	rng := rand.New(rand.NewSource(2))
	for _, customer := range cl.Customers() {
		vms := placedVMs(cl, customer)
		cq := CustomerQuality{VMs: len(vms)}
		racks := make(map[int]bool)
		for _, vm := range vms {
			loc, _ := cl.LocationOf(vm.ID)
			racks[topo.RackOf(loc)] = true
		}
		cq.RacksSpanned = len(racks)
		if n := len(vms); n >= 2 {
			samePairs, pairs := 0, 0
			samples := pairSamplesPerVM * n
			if max := n * (n - 1) / 2; samples > max {
				samples = max
			}
			for k := 0; k < samples; k++ {
				i := rng.Intn(n)
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				a, _ := cl.LocationOf(vms[i].ID)
				b, _ := cl.LocationOf(vms[j].ID)
				pairs++
				if topo.SameRack(a, b) {
					samePairs++
				}
			}
			if pairs > 0 {
				cq.SameRackPairFraction = float64(samePairs) / float64(pairs)
			}
		}
		rep.PerCustomer[customer] = cq
	}
	rep.Load = topo.Load(ChattingFlows(cl, 1, 2))
	return rep
}

// Snapshot renders the current VM-to-PM mapping as the paper's Fig. 7/8
// scatter: X is the rack index, Y the server slot within the rack, one
// series per customer. Multiple VMs of one customer on one server collapse
// to a single dot, as in the paper.
func Snapshot(cl *cluster.Cluster) *metrics.Scatter {
	topo := cl.Topology()
	var sc metrics.Scatter
	type dot struct {
		rack, slot int
		customer   string
	}
	seen := make(map[dot]bool)
	for _, customer := range cl.Customers() {
		for _, vm := range placedVMs(cl, customer) {
			loc, _ := cl.LocationOf(vm.ID)
			d := dot{rack: topo.RackOf(loc), slot: topo.SlotOf(loc), customer: customer}
			if seen[d] {
				continue
			}
			seen[d] = true
			sc.Add(float64(d.rack), float64(d.slot), customer)
		}
	}
	return &sc
}
