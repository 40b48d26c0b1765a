// Package store is the per-node durable state layer: what a v-Bundle node
// is allowed to remember across a crash. Everything else — leaf sets,
// aggregation trees, in-flight anycasts, resolution caches — is soft state
// and must be rebuilt from the live ring during rejoin.
//
// Three sections are persisted per node, each written through at the moment
// the authoritative in-memory structure changes:
//
//   - placements: the VMs the node's server currently hosts (the node's
//     slice of the global placement map);
//   - leases: the receiver-side reservation table, with absolute
//     virtual-time expiries so a restarted node can tell a still-valid
//     lease from one that lapsed while it was down;
//   - peers: a routing-state checkpoint (node IDs and addresses) used to
//     bootstrap the rejoin announce instead of a full cold join.
//
// MemStore is the one implementation: the simulator's crash model needs
// durability only across a node's own crash and restart inside one process,
// so deep copies on save and load are the whole of it, and there is no file
// format to version or to validate.
package store

import "time"

// PlacementRecord is one hosted VM as the node's server knew it.
type PlacementRecord struct {
	// VM is the cluster-wide VM identifier.
	VM int64
	// Customer is the owning customer (the placement key is hash(customer),
	// so the customer string is enough to re-derive routing).
	Customer string
	// Server is the hosting server index; always the owning node's server
	// in well-formed state, kept explicit so a loader can cross-check.
	Server int
}

// LeaseRecord is one receiver-side reservation with its absolute
// virtual-time expiry.
type LeaseRecord struct {
	// VM is the reserved VM's identifier.
	VM int64
	// DemandCPU, DemandMemMB and DemandBW are the reserved demand bundle.
	DemandCPU   float64
	DemandMemMB float64
	DemandBW    float64
	// Expires is the absolute virtual time the lease lapses.
	Expires time.Duration
}

// PeerRecord is one known peer from the node's routing state. IDs are kept
// as raw words so the store does not depend on the pastry package.
type PeerRecord struct {
	IdHi, IdLo uint64
	Addr       int
}

// NodeState is everything a node may recover after a crash.
type NodeState struct {
	// Server is the node's server index (node addresses and server indices
	// coincide in the simulator).
	Server     int
	Placements []PlacementRecord
	Leases     []LeaseRecord
	Peers      []PeerRecord
}
