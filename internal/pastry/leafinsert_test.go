package pastry

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vbundle/internal/ids"
	"vbundle/internal/sim"
)

// insertSortedByDistModel is insertSortedByDist as it was before a full half
// rejected a farther candidate up front, body verbatim: search, insert,
// truncate.
func insertSortedByDistModel(n *Node, list []int32, id ids.Id, ref int32, max int, dist func(ids.Id) ids.Id) []int32 {
	d := dist(id)
	pos := sort.Search(len(list), func(i int) bool {
		return !dist(n.ring.dir[list[i]]).Less(d)
	})
	if pos < len(list) && list[pos] == ref {
		return list // already present
	}
	list = append(list, 0)
	copy(list[pos+1:], list[pos:])
	list[pos] = ref
	if len(list) > max {
		list = list[:max]
	}
	return list
}

// TestLeafInsertMatchesSortedModel holds the leaf-set insertion to the model
// it replaced on random identifiers, both directions, half bounds from one to
// ten, halves from empty to full, and candidates that are farther than a full
// half, nearer, in between and already present.
func TestLeafInsertMatchesSortedModel(t *testing.T) {
	ring := NewRing(sim.NewEngine(3), testTopo(t, 8, 8), Config{}, RandomAssigner)
	rng := rand.New(rand.NewSource(7))
	full, rejected, present := 0, 0, 0
	for trial := 0; trial < 20000; trial++ {
		n := ring.Node(rng.Intn(ring.Size()))
		dist := n.cwDist
		if trial%2 == 1 {
			dist = n.ccwDist
		}
		peer := func() int32 {
			for {
				if r := int32(rng.Intn(ring.Size())); r != int32(n.Addr()) {
					return r
				}
			}
		}
		max := 1 + rng.Intn(10)
		var list []int32
		for fill := rng.Intn(2 * max); fill > 0; fill-- {
			r := peer()
			list = insertSortedByDistModel(n, list, ring.dir[r], r, max, dist)
		}
		ref := peer()
		if rng.Intn(4) == 0 && len(list) > 0 {
			ref = list[rng.Intn(len(list))]
			present++
		}
		if len(list) == max {
			full++
			if dist(ring.dir[list[len(list)-1]]).Less(dist(ring.dir[ref])) {
				rejected++
			}
		}
		// Both get a copy with the room the arena gives a half.
		want := insertSortedByDistModel(n, append(make([]int32, 0, max+1), list...), ring.dir[ref], ref, max, dist)
		got := n.insertSortedByDist(append(make([]int32, 0, max+1), list...), ring.dir[ref], ref, max, dist)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: inserting %d into %v (bound %d) gives %v, want %v", trial, ref, list, max, got, want)
		}
	}
	if full == 0 || rejected == 0 || rejected == full || present == 0 {
		t.Fatalf("the trials missed a case: %d full halves, %d candidates rejected by one, %d already present", full, rejected, present)
	}
}
