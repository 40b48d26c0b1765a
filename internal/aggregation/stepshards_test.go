package aggregation

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// stepRun is what one Step-driven run shows: every node's deliveries in the
// order it received them (time, sender, message type) and its counters.
type stepRun struct {
	seen     [][]string
	counters []simnet.Counters
}

// runStepDriven drives a 64-server aggregation round by round with Step, the
// way core.BootVM drives a boot: values change through SetLocal between the
// steps, from outside the engine, on whichever shard owns the node. Then the
// managers stop and the engine drains.
//
// Manager i starts its ticker at i·10 ms, so no two nodes tick at one
// instant. Step breaks a tie between two node-band events of one instant on
// two shards by shard order, where the serial engine takes them in the order
// they were scheduled: a driver that acts after the first of two
// same-instant ticks would see a different one run first at each shard
// count. The stagger keeps every round's boundary on an instant of one tick.
func runStepDriven(t *testing.T, shards int) stepRun {
	const topic = "BW_Demand"
	engine := sim.NewShardedEngine(3, shards)
	f := newFixtureOn(t, engine, 8, 8, Config{UpdateInterval: time.Minute})
	net := f.ring.Network()
	res := stepRun{seen: make([][]string, f.ring.Size())}
	for _, n := range f.ring.Nodes() {
		n, dst := n, n.Addr()
		net.Attach(dst, simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) {
			res.seen[dst] = append(res.seen[dst], fmt.Sprintf("%v:%d:%T", net.EngineFor(dst).Now(), from, msg))
			n.HandleMessage(from, msg)
		}))
	}
	for i, m := range f.managers {
		m.Subscribe(topic, nil)
		m.SetLocal(topic, float64(i))
		m.sc.Node().Engine().At(time.Duration(i)*10*time.Millisecond, m.Start)
	}
	for round := 1; round <= 4; round++ {
		for engine.Now() < time.Duration(round)*time.Minute && engine.Step() {
		}
		for i, m := range f.managers {
			if i%3 == round%3 {
				m.SetLocal(topic, float64(round*i))
			}
		}
	}
	for _, m := range f.managers {
		m.Stop()
	}
	engine.Run()
	res.counters = net.AllCounters()
	return res
}

// TestStepDrivenShardsMatchSerial holds a Step-driven sharded engine to the
// serial one. Step raises every shard's clock to the event it runs, so a
// value set between two steps is sent at the time a serial engine sends it,
// whichever shard owns the node. Each node must receive the same messages at
// the same times in the same order, and no message may be lost: every
// node's counters match the serial run's, and what was sent was received.
func TestStepDrivenShardsMatchSerial(t *testing.T) {
	ref := runStepDriven(t, 1)
	sent, received := 0, 0
	for _, c := range ref.counters {
		sent += c.MsgsSent
		received += c.MsgsReceived
	}
	if sent == 0 || received != sent {
		t.Fatalf("serial run: %d sent, %d received", sent, received)
	}
	for _, shards := range []int{2, 4} {
		got := runStepDriven(t, shards)
		for a := range ref.seen {
			if !slices.Equal(got.seen[a], ref.seen[a]) {
				t.Fatalf("%d shards: node %d received %d messages, serially %d; first difference at %d",
					shards, a, len(got.seen[a]), len(ref.seen[a]), firstDiff(got.seen[a], ref.seen[a]))
			}
			if got.counters[a] != ref.counters[a] {
				t.Fatalf("%d shards: node %d counted %+v, serially %+v", shards, a, got.counters[a], ref.counters[a])
			}
		}
	}
	t.Logf("%d messages sent and received on 1, 2 and 4 shards", sent)
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
