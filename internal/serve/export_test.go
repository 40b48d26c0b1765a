package serve

import "vbundle/internal/cluster"

var poisonVM, poisonCustomer = &cluster.VM{ID: -1}, &customerState{}

// Poison overwrites a banked flight record (sim.CheckPoisoned): its batch
// filled to capacity with a VM no server hosts and left empty, as a taker
// appends to it, a customer no boot named and minus the stamp as the VMs
// remaining. It keeps the front end and the bound completion, which a
// record carries from the slab on.
func (fl *flight) Poison(stamp uint64) (twice bool) {
	full := fl.batch[:cap(fl.batch)]
	for i := range full {
		full[i] = poisonVM
	}
	twice = fl.remaining == -int(stamp)
	fl.batch, fl.cs, fl.remaining = full[:0], poisonCustomer, -int(stamp)
	return twice
}
