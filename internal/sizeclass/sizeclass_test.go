package sizeclass

import (
	"runtime"
	"testing"
)

var sink any

// allocated reports what the allocator hands out for one T, measured: the
// smallest per-object growth of the runtime's allocation total over a few
// batches (anything else allocating meanwhile only adds).
func allocated[T any]() uintptr {
	const batch = 512
	best := ^uint64(0)
	for trial := 0; trial < 5; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < batch; i++ {
			sink = new(T)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / batch; per < best {
			best = per
		}
	}
	return uintptr(best)
}

// TestTableMatchesAllocator holds the table against this toolchain's
// allocator at the sizes the layout ceilings sit on, and one step past each.
func TestTableMatchesAllocator(t *testing.T) {
	check := func(size, got uintptr) {
		t.Helper()
		if want := Of(size); got != want {
			t.Errorf("a %d-byte object takes %d bytes, the table says %d", size, got, want)
		}
	}
	check(256, allocated[[256]byte]())
	check(257, allocated[[257]byte]())
	check(320, allocated[[320]byte]())
	check(321, allocated[[321]byte]())
	check(416, allocated[[416]byte]())
	check(417, allocated[[417]byte]())
	check(448, allocated[[448]byte]())
	check(584, allocated[[584]byte]())
}
