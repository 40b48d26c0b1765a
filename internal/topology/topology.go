// Package topology models the hierarchical datacenter network that v-Bundle
// optimizes for: servers attached to top-of-rack (ToR) switches, racks
// grouped into pods under aggregation switches, and pods joined by a core
// layer. ToR up-links are oversubscribed (the paper cites 1:5 to 1:20;
// its testbed uses 8:1), which makes bi-section bandwidth the scarce
// resource v-Bundle's placement tries to preserve.
//
// The package answers two questions for the rest of the system:
//
//   - proximity: how far apart are two servers (hop count, message latency)?
//   - load: given a set of inter-VM flows, how much traffic crosses rack
//     and pod boundaries, and how utilized are the shared up-links?
package topology

import (
	"fmt"
	"math"
	"time"
)

// Spec describes a datacenter to build. The zero value is not valid; use
// DefaultSpec or fill in every field.
type Spec struct {
	// Racks is the number of top-of-rack switches.
	Racks int
	// ServersPerRack is the number of servers attached to each ToR.
	ServersPerRack int
	// RacksPerPod groups racks under one aggregation switch. If zero, a
	// single pod spans the whole datacenter.
	RacksPerPod int
	// NICMbps is the line rate of every server NIC, in Mbps.
	NICMbps float64
	// Oversubscription is the ratio between the total server bandwidth in a
	// rack and its ToR up-link capacity (the paper's testbed uses 8).
	// Values below 1 are treated as 1 (non-oversubscribed).
	Oversubscription float64
	// LANHop is the one-way latency contributed by each switch level a
	// message crosses. The paper's overhead measurements (§V.C, Fig. 14)
	// observe about 10 ms per additional tree level on their LAN.
	LANHop time.Duration
	// LocalDelivery is the latency for messages between co-located
	// endpoints (same server).
	LocalDelivery time.Duration
}

// DefaultSpec mirrors the paper's simulated setup: 70 racks of about 43
// servers (~3000 total), 1 Gbps NICs, 8:1 oversubscribed ToR up-links and
// the ~10 ms LAN hop latency from §V.C.
func DefaultSpec() Spec {
	return Spec{
		Racks:            70,
		ServersPerRack:   43,
		RacksPerPod:      10,
		NICMbps:          1000,
		Oversubscription: 8,
		LANHop:           10 * time.Millisecond,
		LocalDelivery:    50 * time.Microsecond,
	}
}

// Validate reports whether the spec describes a buildable datacenter.
func (s Spec) Validate() error {
	if s.Racks <= 0 {
		return fmt.Errorf("topology: Racks = %d, need > 0", s.Racks)
	}
	if s.ServersPerRack <= 0 {
		return fmt.Errorf("topology: ServersPerRack = %d, need > 0", s.ServersPerRack)
	}
	if s.RacksPerPod < 0 {
		return fmt.Errorf("topology: RacksPerPod = %d, need >= 0", s.RacksPerPod)
	}
	if s.NICMbps <= 0 {
		return fmt.Errorf("topology: NICMbps = %g, need > 0", s.NICMbps)
	}
	// Server indices double as 32-bit network addresses: the overlay's
	// tables store them as int32 and TierBetween divides them as uint32.
	if s.Racks > math.MaxInt32/s.ServersPerRack {
		return fmt.Errorf("topology: %d racks of %d servers exceed the %d-server address bound",
			s.Racks, s.ServersPerRack, math.MaxInt32)
	}
	return nil
}

// Topology is an immutable realized datacenter network.
type Topology struct {
	spec    Spec
	servers int
	// spr and rpp are ServersPerRack and the racks a pod holds (RacksPerPod,
	// or every rack when that is 0 or larger) as TierBetween divides them:
	// 32-bit, which Validate's address bound makes lossless.
	spr, rpp uint32
}

// New builds a topology from spec.
func New(spec Spec) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rpp := spec.RacksPerPod
	if rpp == 0 || rpp > spec.Racks {
		rpp = spec.Racks
	}
	if spec.Oversubscription < 1 {
		spec.Oversubscription = 1
	}
	return &Topology{
		spec:    spec,
		servers: spec.Racks * spec.ServersPerRack,
		spr:     uint32(spec.ServersPerRack),
		rpp:     uint32(rpp),
	}, nil
}

// Spec returns the spec the topology was built from.
func (t *Topology) Spec() Spec { return t.spec }

// Servers returns the total number of servers.
func (t *Topology) Servers() int { return t.servers }

// NICMbps returns the per-server NIC line rate.
func (t *Topology) NICMbps() float64 { return t.spec.NICMbps }

// RackOf returns the rack index of a server. Servers are enumerated rack by
// rack: server i lives in rack i / ServersPerRack, slot i % ServersPerRack.
// This enumeration order matches the nodeId assignment of ids.Scaled, which
// is what makes ring adjacency reflect physical adjacency.
func (t *Topology) RackOf(server int) int {
	t.checkServer(server)
	return server / t.spec.ServersPerRack
}

// SlotOf returns the position of a server within its rack.
func (t *Topology) SlotOf(server int) int {
	t.checkServer(server)
	return server % t.spec.ServersPerRack
}

// SameRack reports whether two servers share a ToR switch.
func (t *Topology) SameRack(a, b int) bool { return t.RackOf(a) == t.RackOf(b) }

// Tier identifies the highest network layer a path between two servers
// crosses.
type Tier int

// Path tiers, ordered by distance.
const (
	// TierLocal is communication within one server (no network crossing).
	TierLocal Tier = iota + 1
	// TierRack crosses only the shared ToR switch.
	TierRack
	// TierPod crosses the pod's aggregation switch.
	TierPod
	// TierCore crosses the datacenter core (bi-section traffic).
	TierCore
)

// String returns the tier name.
func (ti Tier) String() string {
	switch ti {
	case TierLocal:
		return "local"
	case TierRack:
		return "rack"
	case TierPod:
		return "pod"
	case TierCore:
		return "core"
	default:
		return fmt.Sprintf("Tier(%d)", int(ti))
	}
}

// TierBetween classifies the path between two servers.
func (t *Topology) TierBetween(a, b int) Tier {
	// Every message send and every spill-walk candidate is ranked through
	// here: one range check for the pair, 32-bit divisions, and the pod
	// divisions only for servers in different racks.
	if uint(a) >= uint(t.servers) || uint(b) >= uint(t.servers) {
		t.checkServer(a)
		t.checkServer(b)
	}
	if a == b {
		return TierLocal
	}
	ra, rb := uint32(a)/t.spr, uint32(b)/t.spr
	if ra == rb {
		return TierRack
	}
	if ra/t.rpp == rb/t.rpp {
		return TierPod
	}
	return TierCore
}

// Latency returns the one-way message latency between two servers under the
// spec's LAN hop model: LocalDelivery within a server, and one LANHop per
// tier level crossed otherwise.
func (t *Topology) Latency(a, b int) time.Duration {
	switch t.TierBetween(a, b) {
	case TierLocal:
		return t.spec.LocalDelivery
	case TierRack:
		return t.spec.LANHop
	case TierPod:
		return 2 * t.spec.LANHop
	default:
		return 3 * t.spec.LANHop
	}
}

// ToRUplinkMbps returns the capacity of one rack's up-link to the
// aggregation layer, after oversubscription.
func (t *Topology) ToRUplinkMbps() float64 {
	return float64(t.spec.ServersPerRack) * t.spec.NICMbps / t.spec.Oversubscription
}

func (t *Topology) checkServer(server int) {
	if server < 0 || server >= t.servers {
		panic(fmt.Sprintf("topology: server %d out of range [0,%d)", server, t.servers))
	}
}

// Flow is a unidirectional traffic stream between two servers.
type Flow struct {
	// Src and Dst are server indices.
	Src, Dst int
	// Mbps is the offered rate of the flow.
	Mbps float64
}

// LoadReport summarizes how a set of flows stresses the shared network.
type LoadReport struct {
	// IntraServerMbps is traffic that never leaves a server.
	IntraServerMbps float64
	// IntraRackMbps crosses only ToR switches.
	IntraRackMbps float64
	// IntraPodMbps crosses aggregation switches but not the core.
	IntraPodMbps float64
	// BisectionMbps crosses the core layer: the scarce resource.
	BisectionMbps float64
	// RackUplinkMbps[r] is the total traffic entering or leaving rack r
	// through its ToR up-link.
	RackUplinkMbps []float64
	// MaxUplinkUtilization is the highest ToR up-link utilization in
	// [0, +inf) relative to ToRUplinkMbps (values above 1 mean saturation).
	MaxUplinkUtilization float64
}

// CrossRackMbps returns all traffic that leaves its source rack.
func (r LoadReport) CrossRackMbps() float64 { return r.IntraPodMbps + r.BisectionMbps }

// TotalMbps returns the sum of all flow rates.
func (r LoadReport) TotalMbps() float64 {
	return r.IntraServerMbps + r.IntraRackMbps + r.IntraPodMbps + r.BisectionMbps
}

// Load aggregates the given flows into a LoadReport.
func (t *Topology) Load(flows []Flow) LoadReport {
	rep := LoadReport{RackUplinkMbps: make([]float64, t.spec.Racks)}
	for _, f := range flows {
		switch t.TierBetween(f.Src, f.Dst) {
		case TierLocal:
			rep.IntraServerMbps += f.Mbps
		case TierRack:
			rep.IntraRackMbps += f.Mbps
		case TierPod:
			rep.IntraPodMbps += f.Mbps
			rep.RackUplinkMbps[t.RackOf(f.Src)] += f.Mbps
			rep.RackUplinkMbps[t.RackOf(f.Dst)] += f.Mbps
		default:
			rep.BisectionMbps += f.Mbps
			rep.RackUplinkMbps[t.RackOf(f.Src)] += f.Mbps
			rep.RackUplinkMbps[t.RackOf(f.Dst)] += f.Mbps
		}
	}
	cap := t.ToRUplinkMbps()
	for _, load := range rep.RackUplinkMbps {
		if u := load / cap; u > rep.MaxUplinkUtilization {
			rep.MaxUplinkUtilization = u
		}
	}
	return rep
}
