package serve

import (
	"testing"
	"unsafe"

	"vbundle/internal/sizeclass"
)

// TestCustomerStateSizeCeiling pins what one customer record costs: 128
// bytes. The front end carves the records from a slab, so there is no size
// class to absorb a word — every byte is one more a customer — and the
// ceiling is the size itself. Half of it is the live queue's inline slots,
// which hold a customer's first eight running VMs without a backing of their
// own.
func TestCustomerStateSizeCeiling(t *testing.T) {
	const ceiling = 128
	size := unsafe.Sizeof(customerState{})
	if size > ceiling {
		t.Fatalf("serve.customerState is %d bytes (it would fall into the %d-byte size class of its own); the ceiling is %d",
			size, sizeclass.Of(size), ceiling)
	}
	t.Logf("serve.customerState: %d bytes, %d-byte size class", size, sizeclass.Of(size))
}
