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
// There is one fill (Shaper.fill); Allocate, AllocateWeighted and
// Shaper.Satisfied differ only in the weights they hand it and in what they
// do with the shares.
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
	w        float64 // the class's share of the surplus per unit of fill level
	level    float64 // headroom / w: the fill level at which the class saturates
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
// The surplus over the guarantees is shared equally, or in proportion to
// each class's rate when weighted.
//
// If the guarantees alone exceed capacity (an over-committed server that
// admission control would not produce), guarantees are scaled down
// proportionally, mirroring how HTB degrades.
func (s *Shaper) fill(capacity float64, classes []Class, weighted bool) []float64 {
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

	// Phase 2: water-fill the surplus among hungry classes. Sorting by the
	// level at which each saturates lets a single pass compute the fill.
	// With unit weights the arithmetic below is exact in the weights
	// (x*1, x/1 and a count held in a float64), so equal filling is the
	// weighted fill and not a second body.
	floor := 0.0
	if weighted {
		floor = weightFloor(classes)
	}
	hs := s.hs[:0]
	var wsum float64
	for i, c := range classes {
		if h := c.target() - alloc[i]; h > 0 {
			w := 1.0
			if weighted {
				w = max(c.Rate, floor)
			}
			hs = append(hs, hungry{idx: i, headroom: h, w: w, level: h / w})
			wsum += w
		}
	}
	s.hs = hs
	// slices.SortFunc runs the pattern-defeating quicksort sort.Slice runs,
	// from the same template, without boxing the slice or building a
	// reflect swapper: ties land where they always did, so every float is
	// summed in the same order.
	slices.SortFunc(hs, func(a, b hungry) int {
		switch {
		case a.level < b.level:
			return -1
		case a.level > b.level:
			return 1
		}
		return 0
	})

	for k := 0; k < len(hs) && remaining > 0 && wsum > 0; k++ {
		h := &hs[k]
		give := remaining * h.w / wsum
		if give > h.headroom {
			give = h.headroom
		}
		alloc[h.idx] += give
		remaining -= give
		wsum -= h.w
	}
	return alloc
}

// weightFloor is the minimum weight of the rate-proportional fill: a tenth
// of the smallest positive rate (or 1 when no class has a rate), so
// zero-rate classes still progress.
func weightFloor(classes []Class) float64 {
	minRate := 0.0
	for _, c := range classes {
		if c.Rate > 0 && (minRate == 0 || c.Rate < minRate) {
			minRate = c.Rate
		}
	}
	if minRate > 0 {
		return minRate / 10
	}
	return 1
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
	return s.fill(capacity, classes, false)
}

// AllocateWeighted distributes like Allocate but shares the surplus in
// proportion to each class's rate instead of equally — Linux HTB's actual
// behaviour, where a class's quantum derives from its configured rate.
// Classes with zero rate share a minimal weight so they are not starved.
//
// It preserves the same invariants as Allocate (guarantees met, ceil and
// demand respected, capacity respected, work conservation).
func AllocateWeighted(capacity float64, classes []Class) []float64 {
	var s Shaper
	return s.fill(capacity, classes, true)
}

// Satisfied returns the total allocated bandwidth and the total target
// (demand capped by ceil) for a set of classes under the given capacity —
// the per-server contribution to the paper's Fig. 11 "actual satisfied
// resource" versus "resource demand" curves. The shares stay in the
// shaper's scratch.
func (s *Shaper) Satisfied(capacity float64, classes []Class) (allocated, wanted float64) {
	for i, a := range s.fill(capacity, classes, false) {
		allocated += a
		wanted += classes[i].target()
	}
	return allocated, wanted
}
