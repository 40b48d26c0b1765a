package pastry

import "vbundle/internal/ids"

// refArena is the flat backing store for the per-node tables: the two
// leaf-set halves, the neighborhood set, and the expected routing-table
// rows, all of them int32 refs (a peer's address; the identifier lives once,
// in the ring's directory). A ring carves every node's slices out of one
// pointer-free allocation of four bytes a slot instead of letting each node
// grow its own through append doubling — at 256k nodes that replaces ~1.3M
// small heap objects with a single block the collector never scans.
//
// Chunks are handed out as zero-length slices whose capacity is clipped with
// a three-index slice expression, so a chunk that outgrows its reservation
// reallocates privately on append rather than clobbering its neighbor. The
// per-node table-maintenance code is written so that never happens in steady
// state: leaf halves are truncated to LeafSize/2 after every insert (so the
// +1 insertion scratch slot bounds them), the neighborhood set to
// NeighborhoodSize, and no routing table of a ring NewRing built can need a
// row beyond expectedRows (a rebuilt node's private table grows as it must).
type refArena struct {
	buf  []int32
	next int
}

// newRefArena reserves room for n refs.
func newRefArena(n int) *refArena {
	return &refArena{buf: make([]int32, n)}
}

// take carves a zero-length chunk with capacity n out of the arena. An
// exhausted arena falls back to a plain allocation so callers never need to
// care; so does a nil one, which is how Ring.RebuildNode gives the one node
// it replaces private tables (the ring's arena is spent by then).
func (a *refArena) take(n int) []int32 {
	if a == nil || a.next+n > len(a.buf) {
		return make([]int32, 0, n)
	}
	s := a.buf[a.next : a.next : a.next+n]
	a.next += n
	return s
}

// expectedRows returns how many routing-table rows a node of the ring whose
// identifiers sorted holds in rank order can ever populate: one more than the
// longest common prefix of two rank-adjacent identifiers. Row l holds a peer
// sharing exactly l digits with the node, and no two identifiers share a
// longer prefix than some rank-adjacent pair between them does, so the
// reservation is exact — BuildStatic fills that many rows on some node, and
// neither it nor a later consider of a ring member writes beyond them. The
// directory never changes after NewRing, so neither does the bound.
func expectedRows(sorted []ids.Id, cfg Config) int {
	lcp := 0
	for i := 1; i < len(sorted); i++ {
		lcp = max(lcp, sorted[i-1].CommonPrefixLen(sorted[i], cfg.B))
	}
	return min(lcp+1, cfg.rows())
}
