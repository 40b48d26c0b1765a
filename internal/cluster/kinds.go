package cluster

import "fmt"

// Kind names one of the three scheduled resources, for code that works over
// resource vectors (the multi-metric rebalancer of the paper's §VII).
type Kind int

// Resource kinds.
const (
	// KindBandwidth is the network resource the paper focuses on (Mbps).
	KindBandwidth Kind = iota + 1
	// KindCPU is compute capacity in fractional cores.
	KindCPU
	// KindMemory is memory in MB.
	KindMemory
)

// AllKinds lists every resource kind.
var AllKinds = []Kind{KindBandwidth, KindCPU, KindMemory}

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindBandwidth:
		return "bandwidth"
	case KindCPU:
		return "cpu"
	case KindMemory:
		return "memory"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Get returns the component of the resource vector for a kind.
func (r Resources) Get(k Kind) float64 {
	switch k {
	case KindBandwidth:
		return r.BandwidthMbps
	case KindCPU:
		return r.CPU
	case KindMemory:
		return r.MemMB
	default:
		panic(fmt.Sprintf("cluster: unknown resource kind %d", int(k)))
	}
}

// Set returns a copy of the vector with the kind's component replaced.
func (r Resources) Set(k Kind, v float64) Resources {
	switch k {
	case KindBandwidth:
		r.BandwidthMbps = v
	case KindCPU:
		r.CPU = v
	case KindMemory:
		r.MemMB = v
	default:
		panic(fmt.Sprintf("cluster: unknown resource kind %d", int(k)))
	}
	return r
}

// EffectiveDemand is the VM's demand for a kind capped by its limit.
func (v *VM) EffectiveDemand(k Kind) float64 {
	return minF(v.Demand.Get(k), v.Limit.Get(k))
}

// DemandOf sums the effective demand for a kind over hosted VMs. The
// bandwidth sum is DemandBW's cached one; CPU and memory, read only by
// multi-kind runs, are summed on every call.
func (s *Server) DemandOf(k Kind) float64 {
	if k == KindBandwidth {
		return s.DemandBW()
	}
	var sum float64
	for _, vm := range s.vms {
		sum += vm.EffectiveDemand(k)
	}
	return sum
}

// ReservedOf sums hosted reservations for a kind.
func (s *Server) ReservedOf(k Kind) float64 {
	return s.Reserved().Get(k)
}
