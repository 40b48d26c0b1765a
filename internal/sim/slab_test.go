package sim

import (
	"testing"
	"time"
	"unsafe"
)

// slabbed is a pointer-bearing value of the kind slabs carve: a per-node
// struct holding references into the rest of the heap.
type slabbed struct {
	id   int
	next *slabbed
	buf  [3]uint64
}

// TestSlabCarvesZeroedDistinctValues: every value New returns is zero and is
// no other value, and what is written to one stays there while thousands
// more are carved around it.
func TestSlabCarvesZeroedDistinctValues(t *testing.T) {
	var s Slab[slabbed]
	const n = 5000
	got := make([]*slabbed, n)
	seen := make(map[*slabbed]bool, n)
	for i := range got {
		v := s.New()
		if *v != (slabbed{}) {
			t.Fatalf("value %d is not zero: %+v", i, *v)
		}
		if seen[v] {
			t.Fatalf("value %d was handed out before", i)
		}
		seen[v] = true
		v.id, v.buf[2] = i+1, uint64(i)
		if i > 0 {
			v.next = got[i-1]
		}
		got[i] = v
	}
	for i, v := range got {
		if v.id != i+1 || v.buf[2] != uint64(i) || (i > 0 && v.next != got[i-1]) {
			t.Fatalf("value %d holds %+v after later carves", i, *v)
		}
	}
}

// carve takes n values from a fresh slab of T and returns how many elements
// its chunks held in all, checking each chunk against the byte cap on the way.
func carve[T any](t *testing.T, n int) (s *Slab[T], allocated int) {
	t.Helper()
	s = new(Slab[T])
	var zero T
	size := int(unsafe.Sizeof(zero))
	for i := 0; i < n; i++ {
		fresh := len(s.free) == 0
		s.New()
		if !fresh {
			continue
		}
		allocated += s.n
		if s.n > 1 && s.n*size > slabMaxBytes {
			t.Fatalf("%d-byte values: a chunk of %d is %d bytes, over the %d-byte cap", size, s.n, s.n*size, slabMaxBytes)
		}
		if s.n*size <= slabMaxBytes/2 && s.n < slabMinLen {
			t.Fatalf("%d-byte values: a chunk of %d, below the %d a chunk starts at", size, s.n, slabMinLen)
		}
	}
	return s, allocated
}

// TestSlabChunksStayUnderTheCap: chunks double up to the byte cap and no
// further, whatever the element size; an element bigger than the cap gets a
// chunk of its own.
func TestSlabChunksStayUnderTheCap(t *testing.T) {
	carve[byte](t, 100000)
	carve[slabbed](t, 20000)
	carve[[320]byte](t, 2000)
	carve[[20000]byte](t, 10)
	s, allocated := carve[[40000]byte](t, 5)
	if s.n != 1 || allocated != 5 {
		t.Fatalf("values over the cap: chunks of %d, %d elements for 5 values", s.n, allocated)
	}
}

// TestSlabTailIsAtMostOneChunk: whatever the number of values carved, every
// chunk but the current one is full, so what the slab holds unused is less
// than one chunk — at most slabMaxBytes.
func TestSlabTailIsAtMostOneChunk(t *testing.T) {
	for n := 1; n <= 3000; n += 7 {
		s, allocated := carve[slabbed](t, n)
		waste := allocated - n
		if waste != len(s.free) || waste >= s.n {
			t.Fatalf("%d values: %d elements allocated, %d unused, current chunk %d", n, allocated, waste, s.n)
		}
		if waste*int(unsafe.Sizeof(slabbed{})) > slabMaxBytes {
			t.Fatalf("%d values: %d unused elements are more than a chunk's %d bytes", n, waste, slabMaxBytes)
		}
	}
}

var shardSlabs = NewLocal[Slab[slabbed]]()

// TestShardsCarveFromTheirOwnSlabs: two shards carving in the same windows,
// each from the slab in its own Local and its events from its own engine's
// slab, share nothing (run it under -race), and every value keeps what its
// shard wrote.
func TestShardsCarveFromTheirOwnSlabs(t *testing.T) {
	root := NewShardedEngine(1, 2)
	root.SetLookahead(time.Millisecond)
	const perShard = 2000
	var got [2][]*slabbed
	for i := 0; i < 2; i++ {
		i := i
		s := root.Shard(i)
		var tick func(k int)
		tick = func(k int) {
			v := shardSlabs.Of(s).New()
			v.id, v.buf[0] = i, uint64(k)
			got[i] = append(got[i], v)
			if k < perShard-1 {
				s.After(10*time.Microsecond, func() { tick(k + 1) })
			}
		}
		s.At(0, func() { tick(0) })
	}
	root.Run()
	if w := root.ShardWork(); w[0].Windows < 2 || w[1].Windows < 2 {
		t.Fatalf("the shards ran %d and %d windows: too few to overlap", w[0].Windows, w[1].Windows)
	}
	seen := make(map[*slabbed]bool, 2*perShard)
	for i, vs := range got {
		if len(vs) != perShard {
			t.Fatalf("shard %d carved %d values, want %d", i, len(vs), perShard)
		}
		for k, v := range vs {
			if seen[v] {
				t.Fatalf("shard %d value %d was carved twice", i, k)
			}
			seen[v] = true
			if v.id != i || v.buf[0] != uint64(k) {
				t.Fatalf("shard %d value %d holds %+v", i, k, *v)
			}
		}
	}
}

// TestPoolBacksEachClassOnce: Get hands out empty backings of the power of
// two a length asks for, no two of them sharing an element while they are
// out; Put clears a backing and the next Get of its class returns it; a
// backing over poolMaxBytes is made and never banked; and a capacity that is
// no power of two is refused.
func TestPoolBacksEachClassOnce(t *testing.T) {
	var p Pool[*slabbed]
	for _, c := range []struct{ n, size int }{{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32}, {128, 128}, {129, 256}} {
		if b := p.Get(c.n); len(b) != 0 || cap(b) != c.size {
			t.Fatalf("Get(%d): len %d cap %d, want 0 and %d", c.n, len(b), cap(b), c.size)
		}
	}
	mark := &slabbed{id: 1}
	out := make(map[**slabbed]bool)
	var held [][]*slabbed
	for i := 0; i < 300; i++ {
		b := p.Get(1 + i%9)[:1+i%9]
		for k := range b {
			if b[k] != nil || out[&b[k]] {
				t.Fatalf("backing %d: element %d is written or handed out twice", i, k)
			}
			out[&b[k]] = true
			b[k] = mark
		}
		held = append(held, b)
	}
	for _, b := range held {
		p.Put(b)
		for k := range b {
			if b[k] != nil {
				t.Fatalf("a banked backing still holds element %d", k)
			}
		}
	}
	if n := p.Poison(mark); n != len(held) {
		t.Fatalf("%d backings banked, %d put", n, len(held))
	}
	for i := len(held) - 1; i >= 0; i-- {
		b := held[i]
		got := p.Get(len(b))
		if &got[:1][0] != &b[0] {
			t.Fatalf("backing %d: Get of its class returned another", i)
		}
	}
	big := p.Get(poolMaxBytes) // 8 bytes an element: over the cap
	if p.Keeps(cap(big)) || !p.Keeps(cap(held[0])) {
		t.Fatalf("Keeps: %t for a backing of %d, %t for one of %d", p.Keeps(cap(big)), cap(big), p.Keeps(cap(held[0])), cap(held[0]))
	}
	p.Put(big)
	if n := p.Poison(mark); n != 0 {
		t.Fatalf("%d backings banked after a backing over poolMaxBytes was put", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a 3-element backing did not panic")
		}
	}()
	p.Put(make([]*slabbed, 0, 3))
}
