package serve

import (
	"math"

	"vbundle/internal/cluster"
)

// poisonVM is a VM ID no cluster issues.
const poisonVM cluster.VMID = -1

var poisonCustomer = &customerState{}

// poisonBatch is the batch a poisoned flight record carries: a VM no server
// hosts.
var poisonBatch = []cluster.VMID{poisonVM}

// Poison overwrites a banked flight record (sim.CheckPoisoned): a batch of a
// VM no server hosts, where a banked record holds none, a customer no boot
// named and minus the stamp as the VMs remaining. It keeps the front end,
// which a record carries from the slab on.
func (fl *flight) Poison(stamp uint64) (twice bool) {
	twice = fl.remaining == -int(stamp)
	fl.batch, fl.cs, fl.remaining = poisonBatch, poisonCustomer, -int(stamp)
	return twice
}

// counted is a bank handed to sim.Poisoner.Watch through its poison func;
// poisoned counts what it filled, sweep after sweep.
type counted struct {
	poison   func(stamp uint64) int
	poisoned int
}

func (c *counted) Poison(stamp uint64) int {
	n := c.poison(stamp)
	c.poisoned += n
	return n
}

// freedVMs poisons the records of destroyed VMs while they lie on the
// cluster's free list (sim.CheckPoisoned): minus the stamp as the ID, which
// no VM is issued, customer "poisoned" and NaN resources. The free list is
// the cluster's own, so the records are found through what it shows: every
// record seen on a server is kept, and one the cluster no longer finds under
// the ID it holds is free, until a CreateVM writes a new VM into it.
type freedVMs struct {
	cl   *cluster.Cluster
	seen map[*cluster.VM]bool
}

func (f *freedVMs) Poison(stamp uint64) (n int) {
	if f.seen == nil {
		f.seen = make(map[*cluster.VM]bool)
	}
	for _, srv := range f.cl.Servers() {
		for _, vm := range srv.VMs() {
			f.seen[vm] = true
		}
	}
	nan := cluster.Resources{CPU: math.NaN(), MemMB: math.NaN(), BandwidthMbps: math.NaN()}
	for vm := range f.seen {
		if f.cl.VM(vm.ID) != vm {
			*vm = cluster.VM{ID: -cluster.VMID(stamp), Customer: "poisoned", Reservation: nan, Limit: nan, Demand: nan}
			n++
		}
	}
	return n
}
