package aggregation

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"vbundle/internal/pastry"
	"vbundle/internal/scribe"
)

var churnTopics = []string{"BW_Capacity", "BW_Demand"}

// refold is the full re-fold the cache stands in for, read-only: the local
// tuples, then the info base of every child scribe still lists, in the info
// base's order, into buf's backing. It neither compacts the info base nor
// touches the cache. The info base and scribe's children are both in
// identifier order, so one merge of the two finds the listed entries.
func refold(m *Manager, st *topicState, buf attrList) attrList {
	agg := append(buf[:0], st.local...)
	if len(st.children) > 0 {
		j := 0
		m.sc.ForEachChild(st.key, func(h pastry.NodeHandle) {
			for j < len(st.children) && m.childID(st.children[j].ref).Less(h.Id) {
				j++
			}
			if j < len(st.children) && st.children[j].ref == int32(h.Addr) {
				for _, cv := range st.children[j].vals.attrList {
					agg.fold(cv.attr, cv.agg)
				}
				j++
			}
		})
	}
	return agg
}

// runChurn replays a deterministic randomized churn sequence — value
// updates (including repeats of the current value, which must not trigger
// resends), leaf failures, and a revival — against a racks×perRack ring, and
// at every quiescent point it is asked for checks that each fold cache marked
// current equals refold: after every stride-th event, or at round boundaries
// only when stride is 0. faults gates the kill/revive schedule and the Pastry
// maintenance that detects it (the expensive part; exercised at the smaller
// scale only). It returns how many current caches it compared and how many
// root latencies the run recorded.
func runChurn(t *testing.T, racks, perRack int, faults bool, stride int) (compared, latencies int) {
	t.Helper()
	const interval = time.Minute
	f := newFixtureCfg(t, racks, perRack, Config{UpdateInterval: interval})
	n := len(f.managers)
	rng := rand.New(rand.NewSource(99))
	var buf attrList
	coherent := func() {
		for i, m := range f.managers {
			for _, st := range m.topics {
				if !st.cacheOK {
					continue
				}
				compared++
				if buf = refold(m, st, buf); !buf.equal(st.cached.attrList) {
					t.Fatalf("at %v node %d topic %s: cached fold %v, full re-fold %v", f.engine.Now(), i, st.name, st.cached, buf)
				}
			}
		}
	}
	// runUntil runs to deadline, or until the queue is empty when deadline
	// is zero (no ticker is armed then). Stepping, a global event at the
	// deadline stops the steps: it sorts after all node work at that instant.
	runUntil := func(deadline time.Duration) {
		switch {
		case stride == 0 && deadline == 0:
			f.engine.Run()
		case stride == 0:
			f.engine.RunUntil(deadline)
		default:
			stop := false
			if deadline > 0 {
				f.engine.AtGlobal(deadline, func() { stop = true })
			}
			for i := 1; !stop && f.engine.Step(); i++ {
				if i%stride == 0 {
					coherent()
				}
			}
		}
		coherent()
	}
	for _, m := range f.managers {
		for _, topic := range churnTopics {
			m.Subscribe(topic, nil)
		}
	}
	runUntil(0) // converge the trees
	for _, m := range f.managers {
		for _, topic := range churnTopics {
			m.SetLocal(topic, float64(rng.Intn(64)))
		}
	}
	runUntil(0) // initial reduction
	if faults {
		f.ring.StartMaintenance()
	}
	for _, m := range f.managers {
		m.Start()
	}
	key := scribe.GroupKey(churnTopics[0])
	var victim, parent *pastry.Node
	for round := 1; round <= 8; round++ {
		runUntil(time.Duration(round)*interval + 10*time.Second)
		// A burst of randomized updates; coarse values make repeats common,
		// so the no-change path (same value set again) is exercised too.
		for j := 0; j < 1+rng.Intn(n/4+1); j++ {
			m := f.managers[rng.Intn(n)]
			m.SetLocal(churnTopics[rng.Intn(len(churnTopics))], float64(rng.Intn(64)))
		}
		coherent()
		if faults && round == 3 {
			// Kill a tree leaf: its parent must notice, drop the child edge
			// and fold it out (the failure path of the cache invalidation).
			// Pastry's failure detector probes leaf sets, so the leaf is one
			// in its parent's leaf set: any other would never be declared
			// dead to the parent, and nothing would be dropped.
			for i, m := range f.managers {
				sc := m.Scribe()
				if len(sc.Children(key)) > 0 || sc.IsRoot(key) || sc.Parent(key).IsNil() {
					continue
				}
				p := f.ring.Node(int(sc.Parent(key).Addr))
				if _, ccw, cw := p.AdjacentSets(); slices.Contains(ccw, int32(i)) || slices.Contains(cw, int32(i)) {
					victim, parent = f.ring.Node(i), p
					break
				}
			}
			if victim == nil {
				t.Fatal("no leaf in its parent's leaf set to kill")
			}
			f.ring.Network().Crash(victim.Addr())
		}
		if faults && round == 6 {
			if f.managers[parent.Addr()].Scribe().HasChild(key, victim.ID()) {
				t.Fatal("the killed leaf was never dropped: the failure path would be vacuous")
			}
			f.ring.Network().Attach(victim.Addr(), victim)
		}
	}
	runUntil(10 * interval)
	for _, m := range f.managers {
		latencies += len(m.RootLatencies())
	}
	return compared, latencies
}

// TestIncrementalMatchesFullRefoldUnderChurn is the property the incremental
// fold rests on: the cache is invalidated whenever a fold input changes — a
// local tuple takes a new value, a child pushes different values, a child
// leaves the tree — so wherever it is marked current it holds exactly what a
// full re-fold would compute, bit for bit, and the messages the run sends are
// the full re-fold's. Checked after every event at 512 servers with leaf
// failures (every 16th under -short, which the race pass uses: a check
// visits all 1024 topics), and at round boundaries at 8192 (not under
// -short).
func TestIncrementalMatchesFullRefoldUnderChurn(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 16
	}
	cases := []struct {
		name           string
		racks, perRack int
		faults         bool
		stride         int
	}{
		{name: "512", racks: 16, perRack: 32, faults: true, stride: stride},
		{name: "8192", racks: 256, perRack: 32, faults: false, stride: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.stride == 0 && testing.Short() {
				t.Skip("8192-server churn skipped with -short")
			}
			compared, latencies := runChurn(t, tc.racks, tc.perRack, tc.faults, tc.stride)
			if compared == 0 || latencies == 0 {
				t.Fatalf("%d current caches compared, %d root latencies: the check would be vacuous", compared, latencies)
			}
		})
	}
}
