package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one host-time interval around a call into a layer's public API.
// Repeated leaf calls (one Frontend.Boot per request, one sampler tick per
// virtual minute) share a single record per (parent, name): Calls counts
// them and DurNs sums them, so a 120k-request iteration keeps a handful of
// records instead of 120k.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Iter   int    `json:"iter"`   // iteration id; 0 is the warm-up
	// StartNs/EndNs are offsets from the recorder's creation: first start
	// and last end when Calls > 1.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	Calls   int   `json:"calls"`
	DurNs   int64 `json:"dur_ns"`
	// ChildNs is the part of DurNs covered by child spans; self time is
	// DurNs − ChildNs.
	ChildNs int64 `json:"child_ns"`

	open int64 // start of the call in progress
}

// SelfNs is the span's duration minus the part its children cover.
func (s *span) SelfNs() int64 { return s.DurNs - s.ChildNs }

type aggKey struct {
	parent int
	name   string
}

// recorder is the benchmark's host-time span recorder. It lives entirely
// in the benchmark: spans wrap calls made from this package, never code
// inside the stack. One goroutine drives the serial engine, so the open
// spans form a stack and the parent of a new span is its top. A nil
// recorder records nothing; the untraced run passes nil.
type recorder struct {
	t0    time.Time
	iter  int
	spans []span
	stack []int
	agg   map[aggKey]int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), agg: make(map[aggKey]int)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) top() int {
	if len(r.stack) == 0 {
		return -1
	}
	return r.stack[len(r.stack)-1]
}

// begin opens a fresh span under the innermost open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	id := len(r.spans)
	now := r.now()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: r.top(), Iter: r.iter, StartNs: now, open: now})
	r.stack = append(r.stack, id)
}

// callSite names an aggregated span at one place in the benchmark's code and
// remembers where its record lives, so a call site hit a hundred thousand
// times per iteration pays two clock reads and no map lookup — the
// recorder's own cost lands in the self time of the span around it.
type callSite struct {
	name             string
	iter, parent, id int
	known            bool
}

// beginCall opens one more call of the aggregated span (parent, site.name).
func (r *recorder) beginCall(site *callSite) {
	if r == nil {
		return
	}
	parent := r.top()
	if !site.known || site.iter != r.iter || site.parent != parent {
		k := aggKey{parent: parent, name: site.name}
		id, ok := r.agg[k]
		if !ok {
			id = len(r.spans)
			r.spans = append(r.spans, span{Name: site.name, ID: id, Parent: parent, Iter: r.iter, StartNs: r.now()})
			r.agg[k] = id
		}
		*site = callSite{name: site.name, iter: r.iter, parent: parent, id: id, known: true}
	}
	r.spans[site.id].open = r.now()
	r.stack = append(r.stack, site.id)
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	id := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	s := &r.spans[id]
	now := r.now()
	d := now - s.open
	s.EndNs = now
	s.Calls++
	s.DurNs += d
	if s.Parent >= 0 {
		r.spans[s.Parent].ChildNs += d
	}
}

// time runs fn inside a fresh span.
func (r *recorder) time(name string, fn func()) {
	r.begin(name)
	fn()
	r.end()
}

// nextIter stamps the spans that follow with a new iteration id.
func (r *recorder) nextIter(iter int) {
	if r == nil {
		return
	}
	r.iter = iter
	for k := range r.agg {
		delete(r.agg, k)
	}
}

// sum adds up one iteration's spans of the given name: total duration and
// self time in seconds, and calls.
func (r *recorder) sum(iter int, name string) (dur, self float64, calls int) {
	if r == nil {
		return 0, 0, 0
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.Iter == iter && s.Name == name {
			dur += float64(s.DurNs) / 1e9
			self += float64(s.SelfNs()) / 1e9
			calls += s.Calls
		}
	}
	return dur, self, calls
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
