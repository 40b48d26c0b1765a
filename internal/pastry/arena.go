package pastry

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
// NeighborhoodSize, and routing tables rarely exceed the expectedRows
// estimate (and fall back to a private copy when they do).
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

// expectedRows returns how many routing-table rows a node of an n-node ring
// is expected to populate. Row l is only useful while more than one node
// shares an l-digit prefix with us, so about log_{2^B}(n) rows are live;
// one extra row of slack absorbs assigner irregularities. Nodes that still
// outgrow the estimate (possible with random identifiers) migrate to a
// private table via rtSlot's fallback path.
func expectedRows(n int, cfg Config) int {
	rows := 1
	for m := 1; m < n && rows < cfg.rows(); m *= cfg.cols() {
		rows++
	}
	return rows
}
