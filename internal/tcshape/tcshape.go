// Package tcshape models the hypervisor-based bandwidth controller of
// v-Bundle (§III.D): Linux traffic control (tc) with HTB-style classes, one
// per VM, each configured with a rate (guaranteed bandwidth, the VM's
// reservation) and a ceil (the maximum it may borrow up to, the VM's
// limit).
//
// Allocate distributes a NIC's capacity across competing VM classes with
// progressive filling:
//
//  1. every class is guaranteed min(rate, demand);
//  2. leftover capacity is shared among still-hungry classes by equal
//     increments (water filling), never exceeding min(ceil, demand);
//  3. the allocator is work-conserving: capacity is left idle only when
//     every class is satisfied or capped.
//
// There is one fill (Shaper.fill); Allocate and Shaper.Satisfied differ only
// in what they do with the shares.
package tcshape

import "slices"

// Class describes one VM's shaping configuration and current offered load.
type Class struct {
	// Rate is the guaranteed bandwidth (reservation), in Mbps.
	Rate float64
	// Ceil is the borrowing ceiling (limit), in Mbps; Ceil >= Rate.
	Ceil float64
	// Demand is the offered load, in Mbps.
	Demand float64
}

// target is the most a class may receive: its demand capped by its ceiling.
func (c Class) target() float64 {
	if c.Demand < c.Ceil {
		return c.Demand
	}
	return c.Ceil
}

// guaranteed is what admission control promised: rate capped by demand (an
// idle class does not consume its guarantee).
func (c Class) guaranteed() float64 {
	if c.Demand < c.Rate {
		return c.Demand
	}
	return c.Rate
}

// hungry is one class that still wants bandwidth after its guarantee.
type hungry struct {
	idx      int
	headroom float64 // target - guaranteed
}

// Shaper owns the scratch the fill works on — the per-class shares and the
// list of hungry classes — so a caller that shapes many servers in a row
// allocates nothing after the first. The zero value is ready to use. A
// Shaper is not safe for concurrent use, and a slice it returns is valid
// only until its next call.
type Shaper struct {
	alloc []float64
	hs    []hungry
}

// fill computes the per-class bandwidth shares for a NIC of the given
// capacity into the shaper's scratch: same length and order as classes.
// The surplus over the guarantees is shared equally.
//
// If the guarantees alone exceed capacity (an over-committed server that
// admission control would not produce), guarantees are scaled down
// proportionally, mirroring how HTB degrades.
func (s *Shaper) fill(capacity float64, classes []Class) []float64 {
	if cap(s.alloc) < len(classes) {
		s.alloc = make([]float64, len(classes))
		s.hs = make([]hungry, 0, len(classes))
	}
	alloc := s.alloc[:len(classes)]
	clear(alloc)
	if capacity <= 0 || len(classes) == 0 {
		return alloc
	}

	// Phase 1: guarantees.
	var guaranteedSum float64
	for _, c := range classes {
		guaranteedSum += c.guaranteed()
	}
	if guaranteedSum > capacity {
		scale := capacity / guaranteedSum
		for i, c := range classes {
			alloc[i] = c.guaranteed() * scale
		}
		return alloc
	}
	for i, c := range classes {
		alloc[i] = c.guaranteed()
	}
	remaining := capacity - guaranteedSum

	// Phase 2: water-fill the surplus among hungry classes. Sorting by
	// headroom, the fill level at which each saturates, lets a single pass
	// compute the fill: each class in turn takes an equal share of what is
	// left, or its headroom if that is less.
	hs := s.hs[:0]
	for i, c := range classes {
		if h := c.target() - alloc[i]; h > 0 {
			hs = append(hs, hungry{idx: i, headroom: h})
		}
	}
	s.hs = hs
	// slices.SortFunc runs the pattern-defeating quicksort sort.Slice runs,
	// from the same template, without boxing the slice or building a
	// reflect swapper: ties land where they always did, so every float is
	// summed in the same order.
	slices.SortFunc(hs, func(a, b hungry) int {
		switch {
		case a.headroom < b.headroom:
			return -1
		case a.headroom > b.headroom:
			return 1
		}
		return 0
	})

	for k := 0; k < len(hs) && remaining > 0; k++ {
		h := &hs[k]
		give := remaining / float64(len(hs)-k)
		if give > h.headroom {
			give = h.headroom
		}
		alloc[h.idx] += give
		remaining -= give
	}
	return alloc
}

// Allocate returns the per-class bandwidth shares for a NIC of the given
// capacity. The result has the same length and order as classes.
//
// Invariants (verified by the test suite):
//
//   - alloc[i] >= min(Rate, Demand) whenever the sum of guarantees fits
//     capacity (admission control ensures it does);
//   - alloc[i] <= min(Ceil, Demand);
//   - sum(alloc) <= capacity;
//   - work conservation: if sum(alloc) < capacity then every class has
//     alloc[i] == min(Ceil, Demand).
func Allocate(capacity float64, classes []Class) []float64 {
	var s Shaper
	return s.fill(capacity, classes)
}

// Satisfied returns the total allocated bandwidth and the total target
// (demand capped by ceil) for a set of classes under the given capacity —
// the per-server contribution to the paper's Fig. 11 "actual satisfied
// resource" versus "resource demand" curves. The shares stay in the
// shaper's scratch.
func (s *Shaper) Satisfied(capacity float64, classes []Class) (allocated, wanted float64) {
	for i, a := range s.fill(capacity, classes) {
		allocated += a
		wanted += classes[i].target()
	}
	return allocated, wanted
}
