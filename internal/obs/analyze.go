package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// This file is the analysis half of the recorder: vb trace reads a trace
// file back with ReadChromeSeries and uses the index here to answer
// "explain this migration" by walking parent refs, and "why is the tail
// slow" via the per-subsystem span statistics.

// spanRec pairs the begin and end halves of an async span.
type spanRec struct {
	begin *Event
	end   *Event
}

func (s *spanRec) duration() (time.Duration, bool) {
	if s.begin == nil || s.end == nil {
		return 0, false
	}
	return s.end.TS - s.begin.TS, true
}

// Index is a causal view over a canonical event slice: spans by ref and
// point events grouped under their parent span.
type Index struct {
	events   []Event
	spans    map[Ref]*spanRec
	children map[Ref][]*Event
	byKind   map[Kind][]*Event
}

// NewIndex builds the causal index (events must be in canonical order, as
// returned by Trace.Events or ReadChromeSeries on a WriteChrome file).
func NewIndex(events []Event) *Index {
	ix := &Index{
		events:   events,
		spans:    make(map[Ref]*spanRec),
		children: make(map[Ref][]*Event),
		byKind:   make(map[Kind][]*Event),
	}
	for i := range events {
		ev := &events[i]
		ix.byKind[ev.Kind] = append(ix.byKind[ev.Kind], ev)
		switch ev.Phase {
		case PhaseBegin:
			rec := ix.spans[ev.Span]
			if rec == nil {
				rec = &spanRec{}
				ix.spans[ev.Span] = rec
			}
			rec.begin = ev
		case PhaseEnd:
			rec := ix.spans[ev.Span]
			if rec == nil {
				rec = &spanRec{}
				ix.spans[ev.Span] = rec
			}
			rec.end = ev
		}
		if ev.Parent != NoRef {
			ix.children[ev.Parent] = append(ix.children[ev.Parent], ev)
		}
	}
	return ix
}

func srcName(src int32) string {
	if src >= RootSource {
		return "root"
	}
	return fmt.Sprintf("node %d", src)
}

// migrationOutcome renders the B argument of a migration end event.
func migrationOutcome(b int64) string {
	switch b {
	case 0:
		return "arrived"
	case 1:
		return "failed: destination dead"
	case 2:
		return "failed: source dead"
	case 3:
		return "failed: admission rejected"
	default:
		return fmt.Sprintf("failed: code %d", b)
	}
}

// ExplainMigrations reconstructs the causal chain of every migration span —
// anycast discovery walk, receiver lease, transfer — and prints each as a
// timeline. vm filters to one VM id (-1 for all); max bounds the output
// (0 = unlimited). Returns the number of migrations explained.
func (ix *Index) ExplainMigrations(w io.Writer, vm int64, max int) int {
	migs := ix.byKind[KindMigration]
	n := 0
	for _, ev := range migs {
		if ev.Phase != PhaseBegin || (vm >= 0 && ev.A != vm) {
			continue
		}
		if max > 0 && n >= max {
			fmt.Fprintf(w, "... (more migrations; raise -max or filter with -vm)\n")
			break
		}
		if n > 0 {
			fmt.Fprintln(w)
		}
		ix.explainOne(w, ev)
		n++
	}
	if n == 0 {
		if vm >= 0 {
			fmt.Fprintf(w, "no migration of vm %d in trace\n", vm)
		} else {
			fmt.Fprintf(w, "no migrations in trace\n")
		}
	}
	return n
}

func (ix *Index) explainOne(w io.Writer, begin *Event) {
	rec := ix.spans[begin.Span]
	fmt.Fprintf(w, "migration vm=%d: %s -> server %d, started %v\n",
		begin.A, srcName(begin.Src), begin.B, begin.TS)
	if d, ok := rec.duration(); ok {
		fmt.Fprintf(w, "  transfer: %v in flight, %s at %v\n", d, migrationOutcome(rec.end.B), rec.end.TS)
	} else {
		fmt.Fprintf(w, "  transfer: still in flight at end of trace\n")
	}

	// Walk up to the anycast that discovered the receiver.
	anyRef := begin.Parent
	anyRec := ix.spans[anyRef]
	if anyRec == nil || anyRec.begin == nil {
		fmt.Fprintf(w, "  discovery: no anycast recorded (parent 0x%x)\n", uint64(anyRef))
		return
	}
	ab := anyRec.begin
	fmt.Fprintf(w, "  caused by anycast 0x%x from %s at %v:\n", uint64(anyRef), srcName(ab.Src), ab.TS)
	steps, retries := 0, 0
	for _, ch := range ix.children[anyRef] {
		switch ch.Kind {
		case KindAnycastStep:
			steps++
			fmt.Fprintf(w, "    visit %d: %s at %v (+%v)\n", ch.A, srcName(ch.Src), ch.TS, ch.TS-ab.TS)
		case KindAnycastRetry:
			retries++
			fmt.Fprintf(w, "    retry at %v (%d attempts left)\n", ch.TS, ch.A)
		}
	}
	if d, ok := anyRec.duration(); ok {
		verdict := "rejected everywhere"
		if anyRec.end.B != 0 {
			verdict = "accepted"
		}
		fmt.Fprintf(w, "    resolved %s after %v (%d nodes visited, %d retries)\n",
			verdict, d, anyRec.end.A, retries)
	}

	// The receiver-side lease granted inside this anycast's walk.
	for _, ch := range ix.children[anyRef] {
		if ch.Kind != KindLease || ch.Phase != PhaseBegin || ch.A != begin.A {
			continue
		}
		lrec := ix.spans[ch.Span]
		fmt.Fprintf(w, "  lease for vm=%d at %s: granted %v", ch.A, srcName(ch.Src), ch.TS)
		if d, ok := lrec.duration(); ok {
			how := "released"
			if lrec.end.B != 0 {
				how = "expired"
			}
			fmt.Fprintf(w, ", %s after %v", how, d)
		}
		renews := 0
		for _, lc := range ix.children[ch.Span] {
			if lc.Kind == KindLeaseRenew {
				renews++
			}
		}
		if renews > 0 {
			fmt.Fprintf(w, " (%d renewals)", renews)
		}
		fmt.Fprintln(w)
	}

	// Per-subsystem latency breakdown for the whole chain.
	if anyRec.end != nil {
		fmt.Fprintf(w, "  breakdown: discovery %v", anyRec.end.TS-ab.TS)
		fmt.Fprintf(w, ", decision-to-start %v", begin.TS-anyRec.end.TS)
		if d, ok := rec.duration(); ok {
			fmt.Fprintf(w, ", transfer %v, total %v", d, rec.end.TS-ab.TS)
		}
		fmt.Fprintln(w)
	}
}

// ExplainCrashes reconstructs every crash→restart→rejoin chain: for each
// KindCrash instant it finds the node's next restart, the rejoin span
// anchored there, and the per-lease adoption verdicts inside it. node
// filters to one node address (-1 for all); max bounds the output
// (0 = unlimited). Returns the number of crashes explained.
func (ix *Index) ExplainCrashes(w io.Writer, node int64, max int) int {
	crashes := ix.byKind[KindCrash]
	n := 0
	for _, ev := range crashes {
		if node >= 0 && int64(ev.Src) != node {
			continue
		}
		if max > 0 && n >= max {
			fmt.Fprintf(w, "... (more crashes; raise -max or filter with -node)\n")
			break
		}
		if n > 0 {
			fmt.Fprintln(w)
		}
		ix.explainCrash(w, ev)
		n++
	}
	if n == 0 {
		if node >= 0 {
			fmt.Fprintf(w, "no crash of node %d in trace\n", node)
		} else {
			fmt.Fprintf(w, "no crashes in trace\n")
		}
	}
	return n
}

func (ix *Index) explainCrash(w io.Writer, crash *Event) {
	fmt.Fprintf(w, "crash %s at %v\n", srcName(crash.Src), crash.TS)

	// The node's next restart after this crash.
	var restart *Event
	for _, ev := range ix.byKind[KindRestart] {
		if ev.Src == crash.Src && ev.TS >= crash.TS {
			restart = ev
			break
		}
	}
	if restart == nil {
		fmt.Fprintf(w, "  never restarted: down from %v to end of trace\n", crash.TS)
		return
	}
	fmt.Fprintf(w, "  restart at %v (down %v)\n", restart.TS, restart.TS-crash.TS)

	// The rejoin span beginning at (or after) the restart on the same source.
	var rejoin *spanRec
	for _, rec := range ix.spans {
		if rec.begin == nil || rec.begin.Kind != KindRejoin {
			continue
		}
		if rec.begin.Src != crash.Src || rec.begin.TS < restart.TS {
			continue
		}
		if rejoin == nil || rec.begin.TS < rejoin.begin.TS {
			rejoin = rec
		}
	}
	if rejoin == nil {
		fmt.Fprintf(w, "  rejoin: not recorded\n")
		return
	}
	boot := "blank store"
	if rejoin.begin.B != 0 {
		boot = "durable state found"
	}
	fmt.Fprintf(w, "  rejoin from %s at %v\n", boot, rejoin.begin.TS)
	if rejoin.begin.A != 0 {
		fmt.Fprintf(w, "    %d checkpointed peers skipped: not nodes of this ring\n", rejoin.begin.A)
	}
	for _, ch := range ix.children[rejoin.begin.Span] {
		if ch.Kind != KindLeaseAdopt {
			continue
		}
		verdict := "re-adopted"
		if ch.B != 0 {
			verdict = "released"
		}
		fmt.Fprintf(w, "    lease vm=%d: %s at %v\n", ch.A, verdict, ch.TS)
	}
	if d, ok := rejoin.duration(); ok {
		fmt.Fprintf(w, "  rejoin done at %v (reconcile %v, recovery %v total): %d leases re-adopted, %d released\n",
			rejoin.end.TS, d, rejoin.end.TS-crash.TS, rejoin.end.A, rejoin.end.B)
	} else {
		fmt.Fprintf(w, "  rejoin still open at end of trace\n")
	}
}

// spanStats accumulates per-kind span durations into a histogram so the
// summary table reports percentiles, not just a mean.
type spanStats struct {
	hist       Histogram
	incomplete int
}

// Summary prints event totals per kind, span latency statistics per
// subsystem, and the counter registry snapshot.
func (ix *Index) Summary(w io.Writer, counters map[string]int64) {
	if len(ix.events) == 0 {
		fmt.Fprintln(w, "empty trace")
		return
	}
	first, last := ix.events[0].TS, ix.events[len(ix.events)-1].TS
	fmt.Fprintf(w, "%d events over %v (virtual %v .. %v)\n\n", len(ix.events), last-first, first, last)

	fmt.Fprintln(w, "events by kind:")
	for k := KindRouteHop; k <= KindAuditViolation; k++ {
		if evs := ix.byKind[k]; len(evs) > 0 {
			fmt.Fprintf(w, "  %-14s %8d  [%s]\n", k.String(), len(evs), k.Subsystem())
		}
	}

	stats := map[Kind]*spanStats{}
	for _, rec := range ix.spans {
		if rec.begin == nil {
			continue
		}
		st := stats[rec.begin.Kind]
		if st == nil {
			st = &spanStats{}
			stats[rec.begin.Kind] = st
		}
		if d, ok := rec.duration(); ok {
			st.hist.RecordDuration(d)
		} else {
			st.incomplete++
		}
	}
	if len(stats) > 0 {
		kinds := make([]Kind, 0, len(stats))
		for k := range stats {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		fmt.Fprintln(w, "\nspan latency by subsystem:")
		for _, k := range kinds {
			st := stats[k]
			h := &st.hist
			fmt.Fprintf(w, "  %-14s n=%-6d p50=%-12v p99=%-12v p999=%-12v max=%-12v",
				k.String(), h.Count(),
				time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.99)),
				time.Duration(h.Quantile(0.999)), time.Duration(h.Max()))
			if st.incomplete > 0 {
				fmt.Fprintf(w, " open=%d", st.incomplete)
			}
			fmt.Fprintln(w)
		}
	}

	if len(counters) > 0 {
		names := make([]string, 0, len(counters))
		for name := range counters {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "\ncounters:")
		for _, name := range names {
			fmt.Fprintf(w, "  %-32s %d\n", name, counters[name])
		}
	}
}

// FormatEvent renders one event as a human-readable line for tail dumps.
func FormatEvent(ev Event) string {
	s := fmt.Sprintf("%-14v %-9s %c %-14s", ev.TS, srcName(ev.Src), ev.Phase, ev.Kind.String())
	if ev.Span != NoRef {
		s += fmt.Sprintf(" span=0x%x", uint64(ev.Span))
	}
	if ev.Parent != NoRef {
		s += fmt.Sprintf(" parent=0x%x", uint64(ev.Parent))
	}
	return s + fmt.Sprintf(" a=%d b=%d", ev.A, ev.B)
}

// Tail prints the last n events — the crash-dump view of a ring recording.
func (ix *Index) Tail(w io.Writer, n int) {
	evs := ix.events
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	for _, ev := range evs {
		fmt.Fprintln(w, FormatEvent(ev))
	}
}
