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
// slice of the unanswered queries through pushes and settles that cross
// chunk boundaries, oldest first and newest first, drain the queue to empty
// and refill it. The queue spans from the oldest unanswered query to the
// newest, and holds the chunks that span needs.
func TestTimeoutQueueIsFIFOAcrossChunks(t *testing.T) {
	var q timeoutQueue
	var model []uint64 // the unanswered queries, in launch order
	next := uint64(0)
	step := func(pushes, settles int, oldestFirst bool) {
		t.Helper()
		for i := 0; i < pushes; i++ {
			next++
			q.push(next, pendingQuery{at: time.Duration(next), n: int32(next)})
			model = append(model, next)
		}
		for i := 0; i < settles; i++ {
			k := len(model) - 1
			if oldestFirst {
				k = 0
			}
			seq := model[k]
			rec := q.find(seq)
			if rec == nil || rec.at != time.Duration(seq) {
				t.Fatalf("find(%d) = %+v", seq, rec)
			}
			if got := q.settle(rec); got.n != int32(seq) || got.answered {
				t.Fatalf("settle(%d) = %+v", seq, got)
			}
			if q.find(seq) != nil {
				t.Fatalf("query %d is found after it settled", seq)
			}
			model = append(model[:k], model[k+1:]...)
		}
		if q.pending != len(model) {
			t.Fatalf("%d pending, model %d", q.pending, len(model))
		}
		span := 0
		if len(model) > 0 {
			span = int(next - model[0] + 1)
			if o := q.oldest(); o == nil || o.at != time.Duration(model[0]) {
				t.Fatalf("oldest = %+v, want query %d", o, model[0])
			}
		} else if q.oldest() != nil {
			t.Fatalf("oldest = %+v with nothing pending", q.oldest())
		}
		if live := (span + q.head + tqChunk - 1) / tqChunk; span > 0 && len(q.chunks) != live || span == 0 && len(q.chunks) != 0 {
			t.Fatalf("%d chunks held for a span of %d (head %d)", len(q.chunks), span, q.head)
		}
	}
	step(3, 3, true)                   // drained inside the first chunk
	step(tqChunk-1, 0, true)           // one short of full
	step(2, 1, true)                   // spills into a second chunk
	step(3*tqChunk, 2*tqChunk, false)  // the newest answer: the head stays
	step(1, 2*tqChunk, true)           // the head crosses the answered ones
	step(0, len(model), true)          // drained to empty across a boundary
	step(tqChunk+5, tqChunk+5, true)   // refilled from the spare, drained again
	step(2*tqChunk+1, 2*tqChunk, true) // one entry left, in the last chunk
	step(1, 2, true)
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
	if d.tq.oldest() != nil || len(d.tq.chunks) != 0 || d.tq.pending != 0 {
		t.Fatalf("after the last timeout: %d chunks, %d pending queries", len(d.tq.chunks), d.tq.pending)
	}
}

// TestTimedOutQueryStopsWalking: a query the gateway has given up on carries
// VMs the front end has destroyed (serve.resolve does, on any error). The
// next server it visits finds them gone, and that must end the walk. A
// refusal once counted as "does not fit here", and the envelope walked on to
// MaxSpillHops — the cluster size, a message a server.
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
	if d.carved != 1 || d.tq.pending != 0 {
		t.Fatalf("%d envelopes carved, %d pending", d.carved, d.tq.pending)
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
// cluster keeps an index entry for every VM it ever made.
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
