package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Counter is a monotonically increasing event count. It is a plain int64,
// not an atomic: every counter is owned by one component and bumped only
// under the engine's single-owner execution discipline, exactly like the
// ad-hoc ints it replaces. Counters work whether or not a trace is enabled;
// registration in a Registry is what makes one visible in the run-end dump.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a sampled-at-dump-time reading, registered as a closure so the
// registry never caches stale values.
type Gauge func() int64

// Registry is the hierarchical counter/gauge index for one trace. Names are
// slash-separated paths ("scribe/anycasts_seen", "net/msgs_sent"); many
// components may register under the same name (one per node) and the dump
// sums them. All methods are nil-receiver safe so components can register
// unconditionally against Trace.Registry().
type Registry struct {
	mu       sync.Mutex
	counters map[string][]*Counter
	gauges   map[string][]Gauge
	hists    map[string][]*Histogram
	diag     map[string]bool
	derived  map[string][]string // per-hist-name snapshot keys, precomputed so sampling never concatenates
	scratch  Histogram
}

// Register attaches a counter under name. Called at component construction,
// never on a hot path.
func (r *Registry) Register(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string][]*Counter)
	}
	r.counters[name] = append(r.counters[name], c)
}

// RegisterGauge attaches a gauge closure under name.
func (r *Registry) RegisterGauge(name string, g Gauge) {
	if r == nil || g == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string][]Gauge)
	}
	r.gauges[name] = append(r.gauges[name], g)
}

// RegisterHistogram attaches a histogram under name. Many components may
// register under one name (one histogram per node); snapshots merge them,
// and because bucket addition is order-independent the derived percentiles
// are identical at any shard count.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string][]*Histogram)
		r.derived = make(map[string][]string)
	}
	r.hists[name] = append(r.hists[name], h)
	if _, ok := r.derived[name]; !ok {
		ks := make([]string, len(histKeys))
		for i, k := range histKeys {
			ks[i] = name + k.suffix
		}
		r.derived[name] = ks
	}
}

// RegisterDiagnosticHistogram attaches a histogram that is execution-shape
// dependent rather than virtual-time determined (e.g. event-queue depth at
// pop, which legitimately differs between the serial and sharded engines).
// Diagnostic histograms appear in WriteJSON dumps but are excluded from
// Snapshot/SnapshotInto — and therefore from the sampled Series and the
// Chrome-trace counter payload — so the shard-equivalence byte-diffs stay
// meaningful.
func (r *Registry) RegisterDiagnosticHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.RegisterHistogram(name, h)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.diag == nil {
		r.diag = make(map[string]bool)
	}
	r.diag[name] = true
}

// histKeys orders the derived per-histogram snapshot entries.
var histKeys = [...]struct {
	suffix string
	q      float64
}{
	{"/p50", 0.50},
	{"/p99", 0.99},
	{"/p999", 0.999},
	{"/max", -1},
	{"/count", -2},
}

// snapshotLocked fills dst with every registered name; the caller holds mu.
func (r *Registry) snapshotLocked(dst map[string]int64, includeDiag bool) {
	for name, cs := range r.counters {
		var sum int64
		for _, c := range cs {
			sum += c.Value()
		}
		dst[name] += sum
	}
	for name, gs := range r.gauges {
		var sum int64
		for _, g := range gs {
			sum += g()
		}
		dst[name] += sum
	}
	for name, hs := range r.hists {
		if r.diag[name] && !includeDiag {
			continue
		}
		m := &r.scratch
		m.Reset()
		for _, h := range hs {
			m.Merge(h)
		}
		keys := r.derived[name]
		for i, k := range histKeys {
			var v int64
			switch k.q {
			case -1:
				v = m.Max()
			case -2:
				v = m.Count()
			default:
				v = m.Quantile(k.q)
			}
			dst[keys[i]] = v
		}
	}
}

// SnapshotInto writes the summed value of every registered counter and
// gauge, plus p50/p99/p999/max/count per non-diagnostic histogram, into
// dst and returns it. A nil dst allocates; a reused dst is cleared first,
// so periodic samplers can snapshot without per-sample garbage.
func (r *Registry) SnapshotInto(dst map[string]int64) map[string]int64 {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if dst == nil {
		dst = make(map[string]int64, len(r.counters)+len(r.gauges)+len(r.hists)*len(histKeys))
	}
	for k := range dst {
		delete(dst, k)
	}
	r.snapshotLocked(dst, false)
	return dst
}

// Snapshot returns the summed value of every registered name. The map form
// serializes deterministically: encoding/json sorts map keys.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	return r.SnapshotInto(nil)
}

// WriteJSON dumps the summed registry as indented JSON (sorted keys, so the
// dump is byte-stable across runs and shard counts). Unlike Snapshot, the
// dump includes diagnostic histograms — it is for human inspection, never
// for cross-shard byte comparison.
func (r *Registry) WriteJSON(w io.Writer) error {
	var snap map[string]int64
	if r != nil {
		r.mu.Lock()
		snap = make(map[string]int64, len(r.counters)+len(r.gauges)+len(r.hists)*len(histKeys))
		r.snapshotLocked(snap, true)
		r.mu.Unlock()
	}
	if snap == nil {
		snap = map[string]int64{}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
