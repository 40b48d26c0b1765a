package aggregation

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vbundle/internal/scribe"
)

// The incremental fold cache must be invisible: a run with dirty-subtree
// caching (the default) and a run with Config.fullRefold must exchange the
// same messages and end in the same state, bit for bit. churnSummary is the
// observable surface the property test compares — every node's globals and
// locals, the root's latency record, and the network's total traffic (equal
// message and byte counts mean the two modes sent the same updates at the
// same times, not just converged to the same values).
type churnSummary struct {
	Globals                                  [][]Global
	HasGlobal                                [][]bool
	Locals                                   [][]float64
	Latencies                                []time.Duration
	Sent, Received, BytesSent, BytesReceived int
}

var churnTopics = []string{"BW_Capacity", "BW_Demand"}

// runChurn replays a deterministic randomized churn sequence — value
// updates (including repeats of the current value, which must not trigger
// resends), leaf failures, and a revival — against a racks×perRack ring and
// returns the observable summary. faults gates the kill/revive schedule and
// the Pastry maintenance that detects it (the expensive part; exercised at
// the smaller scale only).
func runChurn(t *testing.T, racks, perRack int, cfg Config, faults bool) *churnSummary {
	t.Helper()
	f := newFixtureCfg(t, racks, perRack, cfg)
	n := len(f.managers)
	rng := rand.New(rand.NewSource(99))
	for _, m := range f.managers {
		for _, topic := range churnTopics {
			m.Subscribe(topic, nil)
		}
	}
	f.engine.Run() // converge the trees
	for _, m := range f.managers {
		for _, topic := range churnTopics {
			m.SetLocal(topic, float64(rng.Intn(64)))
		}
	}
	f.engine.Run() // initial reduction
	if faults {
		f.ring.StartMaintenance()
	}
	for _, m := range f.managers {
		m.Start()
	}
	interval := cfg.withDefaults().UpdateInterval
	var victim int = -1
	for round := 1; round <= 8; round++ {
		f.engine.RunUntil(time.Duration(round)*interval + 10*time.Second)
		// A burst of randomized updates; coarse values make repeats common,
		// so the no-change path (same value set again) is exercised too.
		for j := 0; j < 1+rng.Intn(n/4+1); j++ {
			i := rng.Intn(n)
			m := f.managers[i]
			m.SetLocal(churnTopics[rng.Intn(len(churnTopics))], float64(rng.Intn(64)))
		}
		if faults && round == 3 {
			// Kill a tree leaf: its parent must notice, drop the child edge
			// and fold it out (the failure path of the cache invalidation).
			key := scribe.GroupKey(churnTopics[0])
			for i, m := range f.managers {
				if len(m.Scribe().Children(key)) == 0 && !m.Scribe().IsRoot(key) {
					victim = i
					break
				}
			}
			if victim < 0 {
				t.Fatal("no leaf found to kill")
			}
			f.ring.Network().Kill(f.ring.Node(victim).Addr())
		}
		if faults && round == 6 {
			f.ring.Network().Revive(f.ring.Node(victim).Addr())
		}
	}
	// Bounded drain: maintenance and update tickers stay armed, so the
	// comparison point is a fixed virtual instant, not queue exhaustion.
	f.engine.RunUntil(time.Duration(10) * interval)

	s := &churnSummary{}
	for _, m := range f.managers {
		var gs []Global
		var hs []bool
		var ls []float64
		for _, topic := range churnTopics {
			g, ok := m.Global(topic)
			gs, hs = append(gs, g), append(hs, ok)
			v, _ := m.Local(topic)
			ls = append(ls, v)
		}
		s.Globals = append(s.Globals, gs)
		s.HasGlobal = append(s.HasGlobal, hs)
		s.Locals = append(s.Locals, ls)
		s.Latencies = append(s.Latencies, m.RootLatencies()...)
	}
	for _, c := range f.ring.Network().AllCounters() {
		s.Sent += c.MsgsSent
		s.Received += c.MsgsReceived
		s.BytesSent += c.BytesSent
		s.BytesReceived += c.BytesReceived
	}
	return s
}

// TestIncrementalMatchesFullRefoldUnderChurn is the equivalence property the
// incremental tick optimization rests on: under randomized churn sequences
// the dirty-subtree mode and the full re-fold reference produce byte-identical
// aggregation info, at 512 and (unless -short) 8192 servers.
func TestIncrementalMatchesFullRefoldUnderChurn(t *testing.T) {
	cases := []struct {
		name           string
		racks, perRack int
		faults         bool
		short          bool
	}{
		{name: "512", racks: 16, perRack: 32, faults: true, short: true},
		{name: "8192", racks: 256, perRack: 32, faults: false, short: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.short && testing.Short() {
				t.Skip("8192-server churn equivalence skipped with -short")
			}
			base := Config{UpdateInterval: time.Minute}
			full := base
			full.fullRefold = true
			ref := runChurn(t, tc.racks, tc.perRack, full, tc.faults)
			got := runChurn(t, tc.racks, tc.perRack, base, tc.faults)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("incremental fold diverged from full re-fold\nfull:        %+v\nincremental: %+v", ref, got)
			}
			if len(ref.Latencies) == 0 {
				t.Fatal("no root latencies recorded; the equivalence check would be vacuous")
			}
		})
	}
}
