package placement

import (
	"fmt"
	"math/bits"

	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// visitedSet is the spill walk's record of the servers a query has been to:
// the ordered list the wire model charges for, plus an open-addressing index
// over it that answers "was this address visited?" in O(1). The walk asks
// that once per candidate per hop, so a scan of the list would make a walk
// quadratic in its own length.
//
// A server is stored as the key addr+1, so that 0 can mean an empty slot.
// The index is linear probing over a power-of-two table, at most three
// quarters full, sized by the longest walk the envelope has carried and
// never by the ring: 4 bytes per visited server in the list and 5 to 11 in
// the table, against the 16 of the nodeId the wire model charges. (Banked
// envelopes are much of what a serving run leaves on the heap, so the table
// is kept this tight; the hash below keeps probe chains short even so.) It
// lives inside the banked envelope and travels with it, so under a sharded
// engine only the shard currently handling the query touches it. An
// envelope's list and table up to 1 KB are power-of-two backings the
// gateway takes from its pool (ready, copyFrom); a walk that outgrows them
// makes twice the room itself, on whatever shard it stands. The gateway
// keeps one more a customer, the walk memo (cache.go): what the customer's
// last finished walk carried home, copied into the next query's envelope;
// its backings are its own.
//
// Invariant: the occupied slots are exactly the keys in list, placed as if
// inserted in list order. reset relies on it to empty the index in
// O(len(list)) instead of clearing the whole table.
type visitedSet struct {
	list  []uint32 // keys in visiting order
	slots []uint32
	shift uint8 // 32 - log2(len(slots)): multiplicative hash → slot index
}

// visitedInitCap is the walk length an envelope's set is first sized for. A
// walk that takes the route to a region with room is admitted at the
// rendezvous, its first visit; a resumed walk is sized by its memo
// (copyFrom), and a longer one grows its envelope, which keeps the room.
const visitedInitCap = 4

// ready gives a set that lacks a list or a table — a fresh envelope's, or
// one whose backings the idle gateway took — room for visitedInitCap
// servers from pool.
func (v *visitedSet) ready(pool *sim.Pool[uint32]) {
	if cap(v.list) == 0 {
		v.list = pool.Get(visitedInitCap)
	}
	if len(v.slots) == 0 {
		v.setTable(pool.Get(2*visitedInitCap), 2*visitedInitCap)
	}
}

// setTable makes the first n slots of the empty backing b the set's table,
// n a power of two. It is cleared: a pooled backing holds what a poisoning
// test left in it.
func (v *visitedSet) setTable(b []uint32, n int) {
	v.slots = b[:n]
	clear(v.slots)
	v.shift = uint8(32 - bits.TrailingZeros(uint(len(v.slots))))
}

// resize gives the set an empty table of n slots, a power of two, of its own.
func (v *visitedSet) resize(n int) { v.setTable(make([]uint32, n), n) }

// home is the slot an address hashes to. Walks visit runs of consecutive
// addresses; the Fibonacci multiplier spreads such runs evenly over the
// table where addr&mask would alias two far-apart runs onto each other.
func (v *visitedSet) home(key uint32) uint32 { return (key * 0x9E3779B1) >> v.shift }

// Len is the number of servers visited.
func (v *visitedSet) Len() int { return len(v.list) }

// At returns the i-th server visited.
func (v *visitedSet) At(i int) simnet.Addr { return simnet.Addr(v.list[i] - 1) }

// Has reports whether the server at addr has been visited.
func (v *visitedSet) Has(addr simnet.Addr) bool {
	key := uint32(addr) + 1
	mask := uint32(len(v.slots) - 1)
	for i := v.home(key); ; i = (i + 1) & mask {
		switch v.slots[i] {
		case key:
			return true
		case 0:
			return false
		}
	}
}

// Add records a visit. The caller never adds an address twice: a query only
// travels to servers for which Has was false.
func (v *visitedSet) Add(addr simnet.Addr) {
	key := uint32(addr) + 1
	if len(v.list) == cap(v.list) {
		// Twice the room, a power of two as a pooled backing is, so that the
		// gateway can bank it once the walk is home.
		v.list = append(make([]uint32, 0, max(2*cap(v.list), visitedInitCap)), v.list...)
	}
	v.list = append(v.list, key)
	if 4*len(v.list) > 3*len(v.slots) {
		v.resize(2 * len(v.slots))
		for _, k := range v.list {
			v.index(k)
		}
		return
	}
	v.index(key)
}

func (v *visitedSet) index(key uint32) {
	mask := uint32(len(v.slots) - 1)
	i := v.home(key)
	for v.slots[i] != 0 {
		i = (i + 1) & mask
	}
	v.slots[i] = key
}

// reset empties the set, keeping its memory, in time proportional to the
// walk. Entries leave in reverse insertion order: the entry added last was
// probed for with every other entry in place, so the same probe finds it
// again, and removing it restores the table to its state before that
// insertion. Any other order could cut a probe chain and strand an entry.
func (v *visitedSet) reset() {
	mask := uint32(len(v.slots) - 1)
	for k := len(v.list) - 1; k >= 0; k-- {
		key := v.list[k]
		i := v.home(key)
		for probes := 0; v.slots[i] != key; probes++ {
			if probes == len(v.slots) {
				panic(fmt.Sprintf("placement: visited server %d is not in its set's table", key-1))
			}
			i = (i + 1) & mask
		}
		v.slots[i] = 0
	}
	v.list = v.list[:0]
}

// copyFrom makes v an equal set to src: the same servers in the same visiting
// order. A table of src's size takes src's slots as they are; a larger one
// (an envelope that has carried a longer walk keeps its room) is indexed
// again in list order, which is what the invariant asks of it. A backing too
// small for src is replaced by one from pool, and banked there; a list the
// pool would not keep, or the walk memo's (a nil pool), grows as append
// grows it, so that a list that grows a little at a time is not made again
// each time, and a table is made to its length.
func (v *visitedSet) copyFrom(src *visitedSet, pool *sim.Pool[uint32]) {
	v.reset()
	if n := len(src.list); cap(v.list) < n && pool != nil && pool.Keeps(n) {
		v.list = regrow(pool, v.list, n)
	}
	v.list = append(v.list, src.list...)
	if n := len(src.slots); len(v.slots) < n {
		v.setTable(regrow(pool, v.slots, n), n)
	}
	if len(v.slots) == len(src.slots) {
		copy(v.slots, src.slots)
		return
	}
	for _, k := range v.list {
		v.index(k)
	}
}
