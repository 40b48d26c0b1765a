package aggregation

import (
	"testing"
	"time"

	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// TestFoldReaderCheckFindsAnEarlyDrop holds the auditor's fold_readers check
// to both halves of its job. It finds nothing after any event of a run that
// loses 2 % of its messages, with values changed every round and a leaf
// leaving, though pushes in flight hold readers it cannot see. And once the
// run is quiet, a leaf's fold list — its cache, its last sent list and its
// parent's info-base entry, three readers — that loses one reader is
// reported, once, at the leaf: the state a release that banks one reader
// early leaves behind. The engine is serial: a value set between the steps
// of a sharded one is scheduled at its shard's own clock.
func TestFoldReaderCheckFindsAnEarlyDrop(t *testing.T) {
	const topic = "BW_Demand"
	key := scribe.GroupKey(topic)
	engine := sim.NewEngine(3)
	f := newFixtureOn(t, engine, 8, 8, Config{UpdateInterval: time.Minute}, simnet.WithDropRate(0.02))
	for i, m := range f.managers {
		m.Subscribe(topic, nil)
		m.SetLocal(topic, float64(i))
		m.Start()
		m.sc.StartMaintenance(20 * time.Second)
	}
	var check FoldReaderCheck
	type failure struct {
		node          int
		topic         string
		readers, refs int
	}
	var failed []failure
	run := func() {
		check.Run(f.managers, func(node int, topic string, readers, refs int) {
			failed = append(failed, failure{node, topic, readers, refs})
		})
	}
	events := 0
	for round := 1; round <= 4; round++ {
		for engine.Now() < time.Duration(round)*time.Minute && engine.Step() {
			run()
			events++
		}
		for i, m := range f.managers {
			if i%3 == round%3 {
				m.SetLocal(topic, float64(round*i))
			}
		}
		if round == 2 {
			for _, m := range f.managers {
				if !m.sc.IsRoot(key) && !m.sc.Parent(key).IsNil() && m.sc.ChildCount(key) == 0 {
					m.sc.Leave(key)
					break
				}
			}
		}
	}
	if len(failed) > 0 {
		t.Fatalf("the check failed %d lists of a sound run over %d events, the first %+v", len(failed), events, failed[0])
	}

	for _, m := range f.managers {
		m.Stop()
		m.sc.StopMaintenance()
	}
	engine.RunFor(time.Minute) // the leaver retries its flushes for good
	var leaf *Manager
	for _, m := range f.managers {
		if st := m.topic(key); st != nil && m.sc.InTree(key) && !m.sc.IsRoot(key) &&
			m.sc.ChildCount(key) == 0 && st.cached == st.lastSent && st.cached.readers.Count() == 3 {
			leaf = m
			break
		}
	}
	if leaf == nil {
		t.Fatal("no leaf holds one list as its cache, its last sent list and its parent's entry")
	}
	l := leaf.topic(key).cached
	l.readers.Drop()
	run()
	want := failure{int(leaf.sc.Node().Addr()), topic, 2, 3}
	if len(failed) != 1 || failed[0] != want {
		t.Fatalf("with one reader dropped early the check reported %+v, want [%+v]", failed, want)
	}
	l.readers.Add()
	failed = failed[:0]
	if run(); len(failed) != 0 {
		t.Fatalf("with the reader back the check reported %+v", failed)
	}
}
