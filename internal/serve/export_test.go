package serve

import (
	"vbundle/internal/cluster"
	"vbundle/internal/sim"
)

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

// ringPoisoner poisons the front end's pool of live-queue rings
// (sim.CheckPoisoned): every banked ring filled with a VM id no boot made.
// poisoned counts the rings it filled, sweep after sweep.
type ringPoisoner struct {
	pool     *sim.Pool[cluster.VMID]
	poisoned int
}

func (p *ringPoisoner) Poison(uint64) int {
	n := p.pool.Poison(poisonVM.ID)
	p.poisoned += n
	return n
}
