package placement

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// TestTimeoutQueueIsFIFOAcrossChunks holds the chunked queue against a plain
// slice through pushes and pops that cross chunk boundaries, drain the queue
// to empty and refill it.
func TestTimeoutQueueIsFIFOAcrossChunks(t *testing.T) {
	var q timeoutQueue
	var model []qTimeout
	next := uint64(0)
	step := func(pushes, pops int) {
		t.Helper()
		for i := 0; i < pushes; i++ {
			next++
			e := qTimeout{seq: next, at: time.Duration(next)}
			q.push(e)
			model = append(model, e)
		}
		for i := 0; i < pops; i++ {
			got, ok := q.peek()
			if !ok || got != model[0] {
				t.Fatalf("peek = %+v, %v; want %+v", got, ok, model[0])
			}
			q.pop()
			model = model[1:]
		}
		if _, ok := q.peek(); ok != (len(model) > 0) {
			t.Fatalf("peek reports ok=%v with %d entries queued", ok, len(model))
		}
		if live := (len(model) + q.head + tqChunk - 1) / tqChunk; len(q.chunks) != live {
			t.Fatalf("%d chunks held for %d queued entries (head %d)", len(q.chunks), len(model), q.head)
		}
	}
	step(3, 3)                   // drained inside the first chunk
	step(tqChunk-1, 0)           // one short of full
	step(2, 1)                   // spills into a second chunk
	step(3*tqChunk, 2*tqChunk)   // head crosses two boundaries
	step(0, len(model))          // drained to empty across a boundary
	step(tqChunk+5, tqChunk+5)   // refilled from the spare, drained again
	step(2*tqChunk+1, 2*tqChunk) // one entry left, in the last chunk
	step(1, 2)
}

// TestQueryTimeoutsFireInLaunchOrder loses every message on the wire, so
// every query that leaves the gateway times out: each exactly once, in launch
// order, over more queries than one chunk of the timeout queue holds.
func TestQueryTimeoutsFireInLaunchOrder(t *testing.T) {
	w := newWorldOn(t, sim.NewEngine(21), 4, 8, 1000, simnet.WithDropRate(1))
	d := NewDHT(w.ring, w.cl, DHTConfig{QueryTimeout: 2 * time.Second})
	const n = 2*tqChunk + 300
	var timedOut []int
	placed := 0
	for i := 0; i < n; i++ {
		i := i
		w.engine.At(time.Duration(i)*time.Millisecond, func() {
			vm, err := w.cl.CreateVM(fmt.Sprintf("customer-%d", i%97), bwRes(1), bwRes(2))
			if err != nil {
				t.Error(err)
				return
			}
			d.Place(vm, func(_ Result, err error) {
				if err != nil {
					timedOut = append(timedOut, i)
				} else {
					placed++ // the gateway owns the customer's key: no message involved
				}
			})
		})
	}
	w.engine.Run()
	if len(timedOut)+placed != n {
		t.Fatalf("%d timed out + %d placed, %d launched", len(timedOut), placed, n)
	}
	if len(timedOut) <= tqChunk {
		t.Fatalf("only %d queries timed out: the queue never crossed a chunk", len(timedOut))
	}
	if d.Timeouts() != len(timedOut) {
		t.Fatalf("Timeouts() = %d, callbacks saw %d", d.Timeouts(), len(timedOut))
	}
	for k := 1; k < len(timedOut); k++ {
		if timedOut[k-1] >= timedOut[k] {
			t.Fatalf("timeout %d fired for query %d after query %d", k, timedOut[k], timedOut[k-1])
		}
	}
	if _, ok := d.tq.peek(); ok || len(d.tq.chunks) != 0 || len(d.pending) != 0 {
		t.Fatalf("after the last timeout: %d chunks, %d pending queries", len(d.tq.chunks), len(d.pending))
	}
}

// TestTimedOutQueryStopsWalking: a query the gateway has given up on carries
// VMs the front end has destroyed (serve.resolve does, on any error). Every
// server with room refuses them as unregistered; the first such refusal must
// end the walk. It used to count as "does not fit here", and the envelope
// walked on to MaxSpillHops — the cluster size, a message a server.
func TestTimedOutQueryStopsWalking(t *testing.T) {
	w := newWorld(t, 64, 8, 1000) // 512 servers, every one with room
	d := NewDHT(w.ring, w.cl, DHTConfig{QueryTimeout: time.Millisecond})
	vm, err := w.cl.CreateVM("Accolade", bwRes(100), bwRes(200))
	if err != nil {
		t.Fatal(err)
	}
	msgs := func() (n int) {
		for _, c := range w.ring.Network().AllCounters() {
			n += c.MsgsSent
		}
		return n
	}
	timedOut := false
	d.Place(vm, func(_ Result, err error) {
		if err == nil {
			t.Error("the query beat a 1 ms timeout: the scenario tests nothing")
		}
		timedOut = true
		w.cl.Destroy(vm.ID)
	})
	w.engine.RunFor(time.Millisecond)
	if !timedOut || d.Timeouts() != 1 {
		t.Fatalf("timed out = %v, Timeouts() = %d at the deadline", timedOut, d.Timeouts())
	}
	atDeadline := msgs()
	w.engine.Run()
	// What is left of the route, and the answer that brings the envelope home.
	if after := msgs() - atDeadline; after > 8 {
		t.Fatalf("%d messages sent after the deadline on a ring of %d, want a handful", after, w.cl.Size())
	}
	if d.carved != 1 || len(d.pending) != 0 {
		t.Fatalf("%d envelopes carved, %d pending", d.carved, len(d.pending))
	}
	bankedEnvelopes(t, d, 1) // the zombie came home
}

// TestLossyBootsKeepEnvelopesBounded: a boot envelope whose message the
// network drops is never banked. It goes to the collector with its
// backings, though its header keeps its slab chunk alive until the chunk's
// other envelopes are lost too, and the bank carves a new one in its place.
// What lost envelopes cost must stay bounded, not pile up: a stream of boots
// at 5 % loss, one in eight lost and timed out, may grow the heap after
// a forced collection by at most the ceiling from the 4,000th boot to the
// 40,000th. The VMs are all made before the first checkpoint, since a
// cluster keeps every VM it ever made.
func TestLossyBootsKeepEnvelopesBounded(t *testing.T) {
	const first, last, ceiling = 4000, 40000, 256 << 10
	engine := sim.NewEngine(5)
	w := newWorldOn(t, engine, 16, 8, 1000, simnet.WithDropRate(0.05))
	d := NewDHT(w.ring, w.cl, DHTConfig{QueryTimeout: time.Second})
	vms := make([]*cluster.VM, last)
	for i := range vms {
		vm, err := w.cl.CreateVM(fmt.Sprintf("c%d", i%64), bwRes(1), bwRes(2))
		if err != nil {
			t.Fatal(err)
		}
		vms[i] = vm
	}
	boots, failed := 0, 0
	heapAt := func(n int) uint64 {
		for ; boots < n; boots++ {
			vm := vms[boots]
			vms[boots] = nil
			d.Place(vm, func(_ Result, err error) {
				if err != nil {
					failed++
				}
				w.cl.Destroy(vm.ID)
			})
			engine.RunFor(5 * time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	from := heapAt(first)
	to := heapAt(last)
	runtime.KeepAlive(d)
	growth := int64(to) - int64(from)
	t.Logf("%d boots, %d timed out, %d envelopes carved; heap %d B at boot %d, %d B at boot %d: %+d B",
		boots, d.Timeouts(), d.carved, from, first, to, last, growth)
	if failed != d.Timeouts() || d.Timeouts() < last/10 {
		t.Fatalf("%d of %d boots failed, %d timed out: the loss lost too little", failed, last, d.Timeouts())
	}
	if growth > ceiling {
		t.Fatalf("the heap grew %d B from boot %d to boot %d; the ceiling is %d", growth, first, last, ceiling)
	}
}
