package cluster

var poisonVM = &VM{ID: -1}

// Poison fills every banked backing to its capacity with a VM no server
// hosts (sim.CheckPoisoned). A spare is one backing a size class, so none
// is banked twice.
func (p *vmSpares) Poison(uint64) (n int) {
	for _, s := range p.spare {
		full := s[:cap(s)]
		for i := range full {
			full[i] = poisonVM
		}
		n += len(full)
	}
	return n
}
