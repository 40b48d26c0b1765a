package cluster

import (
	"testing"
	"unsafe"

	"vbundle/internal/sizeclass"
)

// TestServerSizeCeiling pins what one server record costs: 72 bytes. New
// carves the servers from one []Server, so there is no size class to absorb
// a word — every byte is one more a server — and the ceiling is the size
// itself. 16 of the 72 are the change count and the cached bandwidth sum;
// what is derived from the VM list and read less than once a round is
// summed on demand, not kept here.
func TestServerSizeCeiling(t *testing.T) {
	const ceiling = 72
	size := unsafe.Sizeof(Server{})
	if size > ceiling {
		t.Fatalf("cluster.Server is %d bytes (it would fall into the %d-byte size class of its own); the ceiling is %d",
			size, sizeclass.Of(size), ceiling)
	}
	t.Logf("cluster.Server: %d bytes, %d-byte size class", size, sizeclass.Of(size))
}
