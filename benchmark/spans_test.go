package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRecorderSelfTimeAndAggregation(t *testing.T) {
	r := newRecorder()
	r.nextIter(1)
	r.begin("run")
	gen, boot := callSite{name: "workload.gen"}, callSite{name: "serve.boot_call"}
	for i := 0; i < 3; i++ {
		r.beginCall(&gen)
		r.beginCall(&boot)
		time.Sleep(time.Millisecond)
		r.end()
		r.end()
	}
	r.end()
	if len(r.spans) != 3 {
		t.Fatalf("%d span records, want 3 (repeated calls share one)", len(r.spans))
	}
	run, genSpan, bootSpan := r.spans[0], r.spans[1], r.spans[2]
	if genSpan.Calls != 3 || bootSpan.Calls != 3 || genSpan.Parent != run.ID || bootSpan.Parent != genSpan.ID {
		t.Errorf("calls %d/%d, parents %d/%d", genSpan.Calls, bootSpan.Calls, genSpan.Parent, bootSpan.Parent)
	}
	if bootSpan.DurNs < int64(3*time.Millisecond) || genSpan.ChildNs != bootSpan.DurNs || run.ChildNs != genSpan.DurNs {
		t.Errorf("durations do not nest: run %+v gen %+v boot %+v", run, genSpan, bootSpan)
	}
	if genSpan.SelfNs() < 0 || genSpan.SelfNs() != genSpan.DurNs-bootSpan.DurNs {
		t.Errorf("self time %d", genSpan.SelfNs())
	}
	dur, self, calls := r.sum(1, "workload.gen")
	if calls != 3 || dur <= self {
		t.Errorf("sum: dur %v self %v calls %d", dur, self, calls)
	}
	if _, _, calls := r.sum(2, "workload.gen"); calls != 0 {
		t.Errorf("iteration 2 has %d calls", calls)
	}

	path := filepath.Join(t.TempDir(), "out", "x.spans.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) != 3 || doc.Spans[2].Name != "serve.boot_call" {
		t.Errorf("round trip: %v %+v", err, doc.Spans)
	}

	// A nil recorder is the untraced run: every call is a no-op.
	var off *recorder
	off.begin("x")
	off.beginCall(&gen)
	off.end()
	off.time("z", func() {})
	off.nextIter(3)
	if err := off.write(path); err != nil {
		t.Error(err)
	}
}
