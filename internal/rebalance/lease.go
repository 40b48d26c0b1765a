package rebalance

import (
	"sort"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/obs"
)

// reservation is one receiver-side hold: resources promised to an inbound
// VM (paper §III.C step 3, "hold part of its bandwidth waiting"), governed
// by a lease: the hold lasts one lease from its grant, or from a duplicate
// accept's refresh, and is never renewed. The lease is the backstop against
// every way a release can fail to arrive — lost on the wire past the retry
// budget, or never sent because the shedder died. A transfer that outlasts
// the lease loses its hold; the migration's arrival check still decides
// whether the VM lands, so only the receiver's soft demand guard weakens
// for it: its utilization stops counting the inbound VM until it lands.
type reservation struct {
	vm      cluster.VMID
	demand  cluster.Resources
	expires time.Duration
	// granted is when the current hold was installed (or re-adopted after
	// a crash): the start of the interval the lease-hold-time histogram and
	// the auditor's expiry-sanity check measure from.
	granted time.Duration
	// trace is the hold's recorder span, opened at grant and closed at
	// release or expiry.
	trace obs.Ref
}

// reservationTable tracks a receiver's holds, sorted by VM id so every fold
// over it is deterministic (map iteration would make identically-seeded
// runs diverge). Expiry is lazy: read paths sweep timed-out entries, so no
// engine events are spent per lease.
type reservationTable struct {
	entries []reservation
}

func (t *reservationTable) index(vm cluster.VMID) (int, bool) {
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].vm >= vm })
	return i, i < len(t.entries) && t.entries[i].vm == vm
}

// upsert installs or refreshes the hold for vm; it reports whether the hold
// is new. A duplicate accept of a retried query refreshes: the deadline
// moves to one lease from now and the demand vector is the query's again;
// the grant instant is set only on install, so a refreshed hold keeps
// measuring from its original grant.
func (t *reservationTable) upsert(vm cluster.VMID, demand cluster.Resources, granted, expires time.Duration) bool {
	i, ok := t.index(vm)
	if ok {
		t.entries[i].demand = demand
		t.entries[i].expires = expires
		return false
	}
	t.entries = append(t.entries, reservation{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = reservation{vm: vm, demand: demand, expires: expires, granted: granted}
	return true
}

// release drops the hold for vm, reporting whether it existed.
func (t *reservationTable) release(vm cluster.VMID) bool {
	i, ok := t.index(vm)
	if !ok {
		return false
	}
	t.entries = append(t.entries[:i], t.entries[i+1:]...)
	return true
}

// get returns a pointer to vm's live entry (nil when absent); the pointer
// is valid until the table next mutates.
func (t *reservationTable) get(vm cluster.VMID) *reservation {
	i, ok := t.index(vm)
	if !ok {
		return nil
	}
	return &t.entries[i]
}

// sweep removes entries whose lease expired at or before now, returning how
// many it dropped. When expired is non-nil the dropped entries are appended
// to it (callers reuse a scratch slice; sweep runs on utilization reads).
func (t *reservationTable) sweep(now time.Duration, expired *[]reservation) int {
	w := 0
	for _, e := range t.entries {
		if e.expires > now {
			t.entries[w] = e
			w++
		} else if expired != nil {
			*expired = append(*expired, e)
		}
	}
	n := len(t.entries) - w
	t.entries = t.entries[:w]
	return n
}

// pendingOf sums the held demand for one resource kind. Callers sweep
// first, so every entry is live.
func (t *reservationTable) pendingOf(k cluster.Kind) float64 {
	sum := 0.0
	for _, e := range t.entries {
		sum += e.demand.Get(k)
	}
	return sum
}

func (t *reservationTable) len() int { return len(t.entries) }

// ReserveStats counts reservation-protocol events at one agent (both the
// receiver and the shedder side contribute).
type ReserveStats struct {
	// Accepted counts holds installed by accepted queries.
	Accepted int
	// Renewed counts holds refreshed in place by a duplicate accept of a
	// retried query. Nothing else refreshes a hold: it lasts one lease.
	Renewed int
	// Released counts holds dropped by a release message.
	Released int
	// Expired counts holds reclaimed by lease expiry — the backstop for a
	// release lost beyond its retry budget or a shedder that died.
	Expired int
	// UnknownRelease counts releases for VMs with no hold and no recent
	// release history (e.g. the hold already expired).
	UnknownRelease int
	// DuplicateRelease counts releases for VMs released moments ago —
	// the expected shape of a retried release whose ack was lost.
	DuplicateRelease int
	// OrphanReleases counts shedder-side releases sent for orphaned
	// accepts (verdicts that arrived after the any-cast gave up).
	OrphanReleases int
	// Adopted counts holds re-adopted from the durable store during a
	// post-crash rejoin (still unexpired, VM still in flight).
	Adopted int
}

// reserveCounts is ReserveStats as an agent keeps it: an agent is a record
// every server has, and a count of one agent's holds fits 32 bits.
type reserveCounts struct {
	Accepted, Renewed, Released, Expired                      int32
	UnknownRelease, DuplicateRelease, OrphanReleases, Adopted int32
}

func (c reserveCounts) stats() ReserveStats {
	return ReserveStats{
		Accepted: int(c.Accepted), Renewed: int(c.Renewed), Released: int(c.Released), Expired: int(c.Expired),
		UnknownRelease: int(c.UnknownRelease), DuplicateRelease: int(c.DuplicateRelease),
		OrphanReleases: int(c.OrphanReleases), Adopted: int(c.Adopted),
	}
}

func (s ReserveStats) add(o ReserveStats) ReserveStats {
	s.Accepted += o.Accepted
	s.Renewed += o.Renewed
	s.Released += o.Released
	s.Expired += o.Expired
	s.UnknownRelease += o.UnknownRelease
	s.DuplicateRelease += o.DuplicateRelease
	s.OrphanReleases += o.OrphanReleases
	s.Adopted += o.Adopted
	return s
}
