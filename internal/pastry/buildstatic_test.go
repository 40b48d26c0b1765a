package pastry

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// buildStaticOracle is BuildStatic as it was before the linear passes, kept
// as the model the two passes are held against: the neighborhood insertion
// sort over (proximity, ring closeness) and the routing-table fill that wrote
// every slot through rtSlot.
func buildStaticOracle(r *Ring) {
	n := len(r.nodes)
	if n == 0 {
		return
	}
	half := r.cfg.LeafSize / 2
	candScratch := make([]oracleCandidate, 0, 2*r.cfg.NeighborhoodSize+2)
	for i, node := range r.nodes {
		p := r.pos[i]
		m := half
		if m > n-1 {
			m = n - 1
		}
		node.leafCW = node.leafCW[:0]
		node.leafCCW = node.leafCCW[:0]
		for k := 1; k <= m; k++ {
			node.leafCW = append(node.leafCW, int32(r.byID[(p+k)%n]))
			node.leafCCW = append(node.leafCCW, int32(r.byID[(p-k+n)%n]))
		}
		candScratch = oracleNeighborhood(r, node, candScratch)
		node.lastConsidered = noRef
		node.markJoined()
	}
	oracleRoutingTables(r)
}

func oracleRoutingTables(r *Ring) {
	n := len(r.sortedIDs)
	cols, rows := r.cfg.cols(), r.cfg.rows()
	scratch := make([][]int, rows)
	loRefs := make([]int32, cols)
	hiRefs := make([]int32, cols)
	var fill func(row, gs, ge int)
	fill = func(row, gs, ge int) {
		if ge-gs <= 1 || row >= rows {
			return
		}
		if scratch[row] == nil {
			scratch[row] = make([]int, cols+1)
		}
		bounds := scratch[row]
		bounds[0] = gs
		for d := 1; d < cols; d++ {
			lo := bounds[d-1]
			bounds[d] = lo + sort.Search(ge-lo, func(k int) bool {
				return r.sortedIDs[lo+k].DigitAt(row, r.cfg.B) >= d
			})
		}
		bounds[cols] = ge
		for d := 0; d < cols; d++ {
			if bounds[d+1] > bounds[d] {
				loRefs[d] = int32(r.byID[bounds[d]])
				hiRefs[d] = int32(r.byID[bounds[d+1]-1])
			}
		}
		for d := 0; d < cols; d++ {
			cs, ce := bounds[d], bounds[d+1]
			for p := cs; p < ce; p++ {
				node := r.nodes[r.byID[p]]
				for col := 0; col < cols; col++ {
					if col == d || bounds[col+1] == bounds[col] {
						continue
					}
					if p < bounds[col] {
						*node.rtSlot(row, col) = loRefs[col]
					} else {
						*node.rtSlot(row, col) = hiRefs[col]
					}
				}
			}
		}
		for d := 0; d < cols; d++ {
			fill(row+1, bounds[d], bounds[d+1])
		}
	}
	fill(0, 0, n)
}

type oracleCandidate struct {
	ref int32
	lat time.Duration
}

func oracleNeighborhood(r *Ring, node *Node, cands []oracleCandidate) []oracleCandidate {
	self := int(node.Addr())
	selfAddr := node.Addr()
	own := node.ID()
	cands = cands[:0]
	for d := 1; len(cands) < 2*r.cfg.NeighborhoodSize && d < r.topo.Servers(); d++ {
		for _, srv := range [2]int{self - d, self + d} {
			if srv >= 0 && srv < r.topo.Servers() {
				cands = append(cands, oracleCandidate{ref: int32(srv), lat: r.lat(selfAddr, simnet.Addr(srv))})
			}
		}
	}
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i
		for j > 0 && (c.lat < cands[j-1].lat ||
			(c.lat == cands[j-1].lat && ids.CloserTo(own, r.dir[c.ref], r.dir[cands[j-1].ref]))) {
			cands[j] = cands[j-1]
			j--
		}
		cands[j] = c
	}
	keep := len(cands)
	if keep > r.cfg.NeighborhoodSize {
		keep = r.cfg.NeighborhoodSize
	}
	node.neighbors = node.neighbors[:0]
	for _, c := range cands[:keep] {
		node.neighbors = append(node.neighbors, c.ref)
	}
	return cands
}

// tableDigest hashes every node's leaf halves, neighborhood set and routing
// rows, and the ref arena behind them: each table is hashed to its capacity,
// which is the node's chunk of the arena, slack included, so a write past a
// table's end or a table that left the arena changes the digest too.
func tableDigest(r *Ring) uint64 {
	h := fnv.New64a()
	for _, node := range r.nodes {
		fmt.Fprintf(h, "%d|%v|", node.rtRows, node.joined)
		for _, t := range [][]int32{node.leafCW, node.leafCCW, node.neighbors, node.rt} {
			fmt.Fprintf(h, "%d/%d:%v;", len(t), cap(t), t[:cap(t)])
		}
	}
	return h.Sum64()
}

// TestBuildStaticMatchesOracle builds each ring twice, once with BuildStatic
// and once with the oracle, and requires the same tables and the same arena
// byte for byte — rings of one to 8192 nodes under both assigners, and one
// ring under a non-default configuration. It also holds expectedRows to
// exactness: no node outgrows its arena chunk, and some node fills every row
// of it.
func TestBuildStaticMatchesOracle(t *testing.T) {
	type shape struct{ racks, perRack int }
	shapes := map[int]shape{1: {1, 1}, 2: {1, 2}, 3: {1, 3}, 17: {1, 17}, 100: {10, 10}, 4097: {241, 17}, 8192: {256, 32}}
	cases := []struct {
		n   int
		cfg Config
	}{{1, Config{}}, {2, Config{}}, {3, Config{}}, {17, Config{}}, {100, Config{}}, {4097, Config{}}, {8192, Config{}},
		{100, Config{B: 2, LeafSize: 8, NeighborhoodSize: 8}}, {4097, Config{B: 2, LeafSize: 8, NeighborhoodSize: 8}}}
	for _, c := range cases {
		for _, a := range []struct {
			name   string
			assign IdAssigner
		}{{"hierarchy", HierarchyAssigner}, {"random", RandomAssigner}} {
			t.Run(fmt.Sprintf("n=%d/B=%d/%s", c.n, c.cfg.withDefaults().B, a.name), func(t *testing.T) {
				if c.n > 4097 && testing.Short() {
					t.Skip("8192-node ring; run without -short")
				}
				sh := shapes[c.n]
				topo := testTopo(t, sh.racks, sh.perRack)
				got := NewRing(sim.NewEngine(1), topo, c.cfg, a.assign)
				got.BuildStatic()
				want := NewRing(sim.NewEngine(1), topo, c.cfg, a.assign)
				buildStaticOracle(want)
				if g, w := tableDigest(got), tableDigest(want); g != w {
					for i := range got.nodes {
						gn, wn := got.nodes[i], want.nodes[i]
						for _, tb := range []struct {
							name string
							g, w []int32
						}{{"leafCW", gn.leafCW, wn.leafCW}, {"leafCCW", gn.leafCCW, wn.leafCCW}, {"neighbors", gn.neighbors, wn.neighbors}, {"rt", gn.rt, wn.rt}} {
							if fmt.Sprint(tb.g[:cap(tb.g)]) != fmt.Sprint(tb.w[:cap(tb.w)]) {
								t.Fatalf("node %d %s = %v, oracle %v", i, tb.name, tb.g[:cap(tb.g)], tb.w[:cap(tb.w)])
							}
						}
					}
					t.Fatalf("table digest %x, oracle %x", g, w)
				}
				rows := expectedRows(got.sortedIDs, got.cfg)
				deepest := 0
				for i, node := range got.nodes {
					if cap(node.rt) != rows*got.cfg.cols() {
						t.Fatalf("node %d routing table holds %d slots, the arena reserved %d", i, cap(node.rt), rows*got.cfg.cols())
					}
					deepest = max(deepest, node.rtRows)
				}
				if c.n > 1 && deepest != rows {
					t.Fatalf("the arena reserves %d routing rows, the deepest node fills %d", rows, deepest)
				}
			})
		}
	}
}

// TestExpectedRowsAtLadderSizes pins the reservation the ladder's rings get:
// exactly the rows BuildStatic fills, one fewer than the log-based estimate
// reserved.
func TestExpectedRowsAtLadderSizes(t *testing.T) {
	for _, c := range []struct{ n, rows int }{{8192, 4}, {32768, 4}, {131072, 5}} {
		dir := make([]ids.Id, c.n)
		for i := range dir {
			dir[i] = HierarchyAssigner(i, c.n)
		}
		if got := expectedRows(dir, Config{}.withDefaults()); got != c.rows {
			t.Errorf("%d servers: expectedRows = %d, want %d", c.n, got, c.rows)
		}
	}
}
