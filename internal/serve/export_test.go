package serve

import (
	"vbundle/internal/cluster"
)

var poisonVM, poisonCustomer = &cluster.VM{ID: -1}, &customerState{}

// poisonBatch is the batch a poisoned flight record carries: a VM no server
// hosts.
var poisonBatch = []*cluster.VM{poisonVM}

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
