package sim

import (
	"slices"
	"testing"
)

// TestBankTakesFreshValuesWhenEmpty: an empty bank carves, and what it carves
// is zero and no other value, even with values taken earlier still in use.
func TestBankTakesFreshValuesWhenEmpty(t *testing.T) {
	var b Bank[slabbed]
	const n = 100
	seen := make(map[*slabbed]bool, n)
	for i := 0; i < n; i++ {
		v := b.Take()
		if *v != (slabbed{}) {
			t.Fatalf("value %d is not zero: %+v", i, *v)
		}
		if seen[v] {
			t.Fatalf("value %d was handed out before", i)
		}
		seen[v] = true
		v.id = i + 1
	}
	if got := len(b.Banked()); got != 0 {
		t.Fatalf("a bank nothing was Put to holds %d values", got)
	}
}

// TestBankIsLastInFirstOut: Take hands back what was Put, the most recent
// first, as it was left — across the bank's chunk boundaries too — and
// carves again once the bank is empty.
func TestBankIsLastInFirstOut(t *testing.T) {
	var b Bank[slabbed]
	vs := make([]*slabbed, 2*bankChunkLen+100)
	for i := range vs {
		vs[i] = b.Take()
		vs[i].id = i + 1
	}
	for _, v := range vs {
		b.Put(v)
	}
	for i := len(vs) - 1; i >= 0; i-- {
		v := b.Take()
		if v != vs[i] {
			t.Fatalf("Take returned %p (id %d), want the value put %d-th, %p", v, v.id, i+1, vs[i])
		}
		if v.id != i+1 {
			t.Fatalf("a banked value came back holding id %d, want %d", v.id, i+1)
		}
	}
	if v := b.Take(); slices.Contains(vs, v) || *v != (slabbed{}) {
		t.Fatalf("an emptied bank handed out %p (%+v), want a fresh zero value", v, *v)
	}
}

// TestBankedListsWhatIsBanked: Banked is exactly the values Put and not yet
// taken again, first banked first, and a value Put twice is listed twice —
// which is how a test walking Banked with a seen-set catches a value banked
// twice.
func TestBankedListsWhatIsBanked(t *testing.T) {
	var b Bank[slabbed]
	vs := make([]*slabbed, bankChunkLen+3)
	for i := range vs {
		vs[i] = b.Take()
	}
	for _, v := range vs {
		b.Put(v)
	}
	if got := b.Banked(); !slices.Equal(got, vs) {
		t.Fatalf("Banked lists %d values, not the %d banked in order", len(got), len(vs))
	}
	b.Take()
	if got := b.Banked(); !slices.Equal(got, vs[:len(vs)-1]) {
		t.Fatalf("after one Take, Banked lists %d values, not the first %d banked", len(got), len(vs)-1)
	}
	a := vs[0]
	b.Put(a)
	n := 0
	for _, v := range b.Banked() {
		if v == a {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("a value Put twice is listed %d times, want 2", n)
	}
}

// TestBankRefillingAllocatesNothing: once a bank has held n values, draining
// it and banking up to n again — across chunk boundaries, once or many times —
// allocates nothing: every chunk Take empties is kept for the Put that needs
// it next.
func TestBankRefillingAllocatesNothing(t *testing.T) {
	var b Bank[slabbed]
	for b.n < 4 || b.top != 1 { // three full chunks, one value in a fourth
		b.Put(new(slabbed))
	}
	vs := make([]*slabbed, 0, len(b.Banked()))
	for _, drain := range []int{2, cap(vs)} {
		if allocs := testing.AllocsPerRun(10, func() {
			for range drain {
				vs = append(vs, b.Take())
			}
			for len(vs) > 0 {
				b.Put(vs[len(vs)-1])
				vs = vs[:len(vs)-1]
			}
		}); allocs != 0 {
			t.Fatalf("taking %d values and banking them again allocates %.1f objects, want 0", drain, allocs)
		}
	}
}
