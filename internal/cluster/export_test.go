package cluster

import "math"

var poisonVM = &VM{ID: -1}

// Poison fills every banked backing of every size class to its capacity
// with a VM no server hosts (sim.CheckPoisoned).
func (p *vmSpares) Poison(uint64) int { return p.pool.Poison(poisonVM) }

// Poison overwrites the record in every free slot (sim.CheckPoisoned): minus
// the stamp as its ID, which no VM is issued, customer "poisoned", NaN
// resources, and server 0 as its location, where a free slot holds -1. A
// slot met twice in a sweep, one freed twice, panics.
func (a *vmArena) Poison(stamp uint64) int {
	nan := Resources{CPU: math.NaN(), MemMB: math.NaN(), BandwidthMbps: math.NaN()}
	for _, s := range a.free {
		vm := a.at(s)
		if vm.ID == -VMID(stamp) {
			panic("cluster: a slot is on the free list twice")
		}
		*vm = VM{ID: -VMID(stamp), Customer: "poisoned", Reservation: nan, Limit: nan, Demand: nan}
		*a.loc(s) = 0
	}
	return len(a.free)
}
