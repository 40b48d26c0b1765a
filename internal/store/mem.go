package store

import "sync"

// MemStore is the per-node durability contract. Save* calls replace the
// named section wholesale — the caller always writes its full authoritative
// table, so replaying a save is idempotent by construction. Load returns the
// latest state for a node and ok=false when the node has never saved
// anything (a genuinely blank restart). Every section is deep-copied on both
// save and load: a caller mutating its slice after a save, or the returned
// state after a load, does not alias stored data. It is safe for concurrent
// use by the parallel experiment harness (each run owns its own MemStore,
// but the race detector still wants the discipline).
type MemStore struct {
	mu    sync.Mutex
	nodes map[int]*NodeState
}

// NewMem returns an empty in-memory store.
func NewMem() *MemStore {
	return &MemStore{nodes: make(map[int]*NodeState)}
}

func (m *MemStore) state(node int) *NodeState {
	st, ok := m.nodes[node]
	if !ok {
		st = &NodeState{Server: node}
		m.nodes[node] = st
	}
	return st
}

// SavePlacements replaces the node's placement section.
func (m *MemStore) SavePlacements(node int, recs []PlacementRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state(node).Placements = append([]PlacementRecord(nil), recs...)
	return nil
}

// SaveLeases replaces the node's lease section.
func (m *MemStore) SaveLeases(node int, recs []LeaseRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state(node).Leases = append([]LeaseRecord(nil), recs...)
	return nil
}

// SavePeers replaces the node's peer checkpoint.
func (m *MemStore) SavePeers(node int, recs []PeerRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state(node).Peers = append([]PeerRecord(nil), recs...)
	return nil
}

// Load returns a deep copy of the node's state, or ok=false if the node
// has never saved anything.
func (m *MemStore) Load(node int) (NodeState, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.nodes[node]
	if !ok {
		return NodeState{}, false, nil
	}
	out := NodeState{
		Server:     st.Server,
		Placements: append([]PlacementRecord(nil), st.Placements...),
		Leases:     append([]LeaseRecord(nil), st.Leases...),
		Peers:      append([]PeerRecord(nil), st.Peers...),
	}
	return out, true, nil
}
