package placement

import (
	"vbundle/internal/pastry"
	"vbundle/internal/simnet"
)

// ResolutionCache is the gateway's soft state about each customer: two
// pieces, kept in one entry and dropped together.
//
// The rendezvous — where the overlay route for hash(customer) delivers — lets
// repeat boots skip the multi-hop route and reach the customer's region in
// one direct hop. Its invariant: it never changes where a VM lands. The
// rendezvous is a function of the customer key and ring membership, not of
// where the customer's VMs sit, so a spill walk started from a cached
// rendezvous admits exactly where the routed walk would have.
//
// The walk memo — the visited list and last server of the customer's last
// finished spill walk, plus the servers its terminates have freed since —
// lets the next boot resume that walk at its frontier instead of re-walking
// from the rendezvous the region the last query just proved full. Its
// invariant: it may change where a VM lands, never whether it lands. A
// resumed walk that dead-ends clears what it was given and walks classically
// from the rendezvous, so it fails only where the classic walk fails.
//
// Entries are invalidated whenever a migration moves one of the customer's
// VMs (wired through the migration and rebalance completion hooks) and
// whenever a direct query times out: the first guards staleness against
// membership or liveness change around the footprint, the second detects a
// dead rendezvous, frontier or freed server outright. Only a full routed
// query may (re)populate an entry, so an in-flight direct answer can never
// resurrect an entry that was just evicted; a memo is only ever written into
// an entry that exists.
//
// The cache is engine-state: it is only touched from simulation contexts
// (gateway deliveries, exclusive root instants), which the engine already
// serializes in a deterministic order for any shard count.
type ResolutionCache struct {
	entries map[string]*cacheEntry

	hits      uint64
	misses    uint64
	stores    uint64
	evictions uint64
}

type cacheEntry struct {
	home pastry.NodeHandle
	memo walkMemo
}

// walkMemo is what the gateway keeps of a customer's last finished walk. It
// is a hint about capacity, which changes under it: whatever it says, the
// servers a resumed walk is sent to admit by their own books.
type walkMemo struct {
	// visited is the walk's visited list, in walk order; empty until a walk
	// has finished with every VM placed.
	visited visitedSet
	// frontier is the last server of that walk: the one that admitted its
	// last VM, and the first with room as far as the gateway knows.
	frontier simnet.Addr
	// freed lists, once each, the servers behind the frontier on which a
	// terminate has freed this customer's capacity since; the next query
	// takes the list and stops at each before the frontier.
	freed []simnet.Addr
}

func (m *walkMemo) addFreed(server simnet.Addr) {
	for _, s := range m.freed {
		if s == server {
			return
		}
	}
	m.freed = append(m.freed, server)
}

// CacheStats is a counter snapshot.
type CacheStats struct {
	Hits, Misses, Stores, Evictions uint64
	Size                            int
}

// NewResolutionCache creates an empty cache.
func NewResolutionCache() *ResolutionCache {
	return &ResolutionCache{entries: make(map[string]*cacheEntry)}
}

// lookup returns the customer's entry, nil when there is none, and counts
// the hit or miss.
func (c *ResolutionCache) lookup(customer string) *cacheEntry {
	e := c.entries[customer]
	if e != nil {
		c.hits++
	} else {
		c.misses++
	}
	return e
}

// Peek returns the cached rendezvous without touching the hit/miss
// counters, for observers that must not perturb the stats.
func (c *ResolutionCache) Peek(customer string) (pastry.NodeHandle, bool) {
	if e := c.entries[customer]; e != nil {
		return e.home, true
	}
	return pastry.NoHandle, false
}

// Store records the rendezvous a routed query resolved for the customer. An
// entry that exists keeps its walk memo: two routed queries can be in flight
// before the first stores.
func (c *ResolutionCache) Store(customer string, home pastry.NodeHandle) {
	if home.IsNil() {
		return
	}
	if e := c.entries[customer]; e != nil {
		e.home = home
	} else {
		c.entries[customer] = &cacheEntry{home: home}
	}
	c.stores++
}

// Freed notes that a terminate freed capacity of the customer's on the
// server, so that the customer's next resumed walk stops there on its way to
// the frontier. A customer without a remembered walk needs no note: its next
// walk starts at the rendezvous and finds the hole by itself. Nor does a VM
// that was on no server (server < 0).
func (c *ResolutionCache) Freed(customer string, server int) {
	if e := c.entries[customer]; e != nil && server >= 0 && e.memo.visited.Len() > 0 {
		e.memo.addFreed(simnet.Addr(server))
	}
}

// remember keeps a finished walk for the customer's next query. Stops the
// walk never reached go back on the freed list whatever the outcome. (The stop
// it answered from may have room left too; it is not kept, because a second
// visit is more often wasted than not, and the customer's next terminate
// there lists it again.) The memo itself is replaced only by a walk that
// placed every VM, so that its frontier is a server that admitted something,
// and never by a resumed walk with a shorter list than the memo's: of two
// walks in flight together, the one that went further knows more, whichever
// answers last. Only a fall-back walk, which re-derives the list from the
// rendezvous, or an invalidation shortens what is kept.
func (c *ResolutionCache) remember(q *bootQuery, allPlaced bool) {
	e := c.entries[q.Customer]
	if e == nil {
		return
	}
	m := &e.memo
	if n := len(q.Stops); q.stop < n {
		for _, s := range q.Stops[q.stop : n-1] {
			m.addFreed(s)
		}
	}
	if !allPlaced || q.Resumed && q.Visited.Len() < m.visited.Len() {
		return
	}
	m.frontier = q.Visited.At(q.Visited.Len() - 1)
	if q.Resumed && q.Spill == q.stop {
		// Answered from a stop: the walk went nowhere new, and a freed server
		// the memo did not hold may be what stands last in the list.
		m.frontier = q.Stops[len(q.Stops)-1]
	}
	m.visited.copyFrom(&q.Visited, nil)
}

// Invalidate drops the customer's entry, walk memo included. Idempotent:
// only an actual removal counts as an eviction.
func (c *ResolutionCache) Invalidate(customer string) {
	if _, ok := c.entries[customer]; !ok {
		return
	}
	delete(c.entries, customer)
	c.evictions++
}

// Stats returns a snapshot of the cache counters.
func (c *ResolutionCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Stores:    c.stores,
		Evictions: c.evictions,
		Size:      len(c.entries),
	}
}
