package simnet

import (
	"fmt"
	"testing"
	"time"

	"vbundle/internal/sim"
)

// BenchmarkInboxHubFanIn measures a send to a hub and its delivery with the
// hub's inbox already deep: every other node sends the hub one message, each
// due at an instant of its own, and the engine then delivers them one flush
// at a time. This is the shape of the scale ladder's tree roots and gateways
// (one inbox of 131072 messages at 131072 servers). ns/msg is flat in the
// fan-in when membership and extraction do not depend on the depth.
func BenchmarkInboxHubFanIn(b *testing.B) {
	for _, fanIn := range []int{4096, 65536} {
		b.Run(fmt.Sprint(fanIn), func(b *testing.B) {
			eng := sim.NewEngine(1)
			net := New(eng, fanIn+1, func(a, _ Addr) time.Duration { return time.Duration(a) * time.Microsecond })
			received := 0
			for a := 0; a <= fanIn; a++ {
				net.Attach(Addr(a), HandlerFunc(func(Addr, Message) { received++ }))
			}
			round := func() {
				for src := 1; src <= fanIn; src++ {
					net.Send(Addr(src), 0, "up")
				}
				eng.Run()
			}
			round() // grow the hub's inbox and the queue's backings once
			received = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			if received != b.N*fanIn {
				b.Fatalf("delivered %d of %d messages", received, b.N*fanIn)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(received), "ns/msg")
		})
	}
}
