package core

import (
	"math"

	"vbundle/internal/cluster"
	"vbundle/internal/rebalance"
	"vbundle/internal/tcshape"
)

// FullSweep is BandwidthSatisfaction as it was before the ledger: every
// server that holds VMs shaped afresh, each by a tcshape.Allocate of its
// own, so no scratch or cached entry is shared between servers or calls.
// It is the oracle the ledger is held to, bit for bit.
func FullSweep(cl *cluster.Cluster) BandwidthReport {
	var rep BandwidthReport
	for _, srv := range cl.Servers() {
		if srv.NumVMs() == 0 {
			continue
		}
		classes := rebalance.AppendClasses(nil, srv)
		var got, wanted float64
		for i, a := range tcshape.Allocate(srv.Capacity.BandwidthMbps, classes) {
			got += a
			wanted += math.Min(classes[i].Demand, classes[i].Ceil)
		}
		rep.SatisfiedMbps += got
		rep.DemandMbps += wanted
	}
	return rep
}

// FullDemandOf is Server.DemandOf as it was before the cached bandwidth
// sum: the hosted VMs' effective demand summed in VM-id order on every call.
func FullDemandOf(srv *cluster.Server, k cluster.Kind) float64 {
	var sum float64
	for _, vm := range srv.VMs() {
		sum += vm.EffectiveDemand(k)
	}
	return sum
}
