package sim

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"vbundle/internal/obs"
)

// TestShardWorkAccounting drives a two-shard engine through a known event
// load and checks the per-shard work counters: every executed event is
// attributed to its shard, windows are counted, and a serial engine reports
// its one shard, itself.
func TestShardWorkAccounting(t *testing.T) {
	root := NewShardedEngine(1, 2)
	root.SetLookahead(time.Millisecond)
	const perShard = 101 // initial event plus 100 rescheduled ticks
	var ran [2]int
	for i := 0; i < 2; i++ {
		i := i
		s := root.Shard(i)
		var tick func(k int)
		tick = func(k int) {
			ran[i]++
			if k < perShard-1 {
				s.After(100*time.Microsecond, func() { tick(k + 1) })
			}
		}
		s.At(0, func() { tick(0) })
	}
	root.Run()

	stats := root.ShardWork()
	if len(stats) != 2 {
		t.Fatalf("ShardWork returned %d entries, want 2", len(stats))
	}
	var total uint64
	for i, st := range stats {
		if ran[i] != perShard {
			t.Errorf("shard %d ran %d events, want %d", i, ran[i], perShard)
		}
		if st.Events == 0 || st.Windows == 0 {
			t.Errorf("shard %d stats empty: %+v", i, st)
		}
		total += st.Events
	}
	if total != 2*perShard {
		t.Errorf("total attributed events = %d, want %d", total, 2*perShard)
	}
	// Shard engines resolve to the root's view.
	if got := root.Shard(1).ShardWork(); len(got) != 2 {
		t.Errorf("ShardWork via shard engine returned %d entries, want 2", len(got))
	}

	// A serial engine is one shard: every event it runs — by Run, RunUntil or
	// Step — is that shard's.
	e := NewEngine(1)
	for i := 0; i < 10; i++ {
		e.At(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Step()
	e.RunUntil(5 * time.Millisecond)
	e.Run()
	if got := e.ShardWork(); len(got) != 1 || got[0].Events != 10 {
		t.Errorf("serial engine ShardWork = %+v, want one entry of 10 events", got)
	}
}

// TestOneShardIsTheSerialEngine: a one-shard engine is NewEngine, not a root
// over a shard of its own. It accepts At, registers one queue-depth histogram
// (so the queue-depth count, sim.events, is the number of events run, not
// twice it), and counts each pending event once.
func TestOneShardIsTheSerialEngine(t *testing.T) {
	e := NewShardedEngine(3, 1)
	if e.ShardCount() != 1 || e.Shard(0) != e {
		t.Fatalf("NewShardedEngine(3, 1): %d shards, Shard(0) == e is %v", e.ShardCount(), e.Shard(0) == e)
	}
	tr := obs.NewMetrics()
	AttachObs(e, tr)
	for i := 0; i < 5; i++ {
		e.At(time.Duration(i)*time.Second, func() {})
	}
	e.AtGlobal(time.Second, func() {})
	e.AtKeyedHandler(2*time.Second, 7, funcHandler(func() {}))
	if got := e.Pending(); got != 7 {
		t.Fatalf("Pending = %d, want 7", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
	var dump bytes.Buffer
	var snap map[string]int64
	if err := tr.Registry().WriteJSON(&dump); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(dump.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap["sim/queue_depth/count"]; got != 7 {
		t.Fatalf("sim/queue_depth counted %d pops, want 7", got)
	}
}

// TestShardWorkCountsCaps checks the self-cap counter: a shard that stages a
// root event mid-window shortens its own window and must record the cap.
func TestShardWorkCountsCaps(t *testing.T) {
	root := NewShardedEngine(1, 2)
	lookahead := time.Millisecond
	root.SetLookahead(lookahead)
	s := root.Shard(0)
	fired := false
	// Two shard events in one window; the first stages a root event one
	// lookahead ahead, which self-caps the rest of the window.
	s.At(0, func() {
		s.AtGlobal(s.Now()+lookahead, func() { fired = true })
	})
	s.At(100*time.Microsecond, func() {})
	root.Run()
	if !fired {
		t.Fatal("staged root event never ran")
	}
	stats := root.ShardWork()
	if stats[0].Caps == 0 {
		t.Errorf("staging shard recorded no self-caps: %+v", stats[0])
	}
}
