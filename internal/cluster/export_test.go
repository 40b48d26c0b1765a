package cluster

var poisonVM = &VM{ID: -1}

// Poison fills every banked backing of every size class to its capacity
// with a VM no server hosts (sim.CheckPoisoned).
func (p *vmSpares) Poison(uint64) int { return p.pool.Poison(poisonVM) }
