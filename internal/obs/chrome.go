package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// WriteChrome serializes the trace as Chrome trace_event JSON, loadable in
// chrome://tracing and Perfetto. Layout: virtual-time microseconds as ts,
// the source id (node address) as pid, the subsystem as tid/cat. Spans use
// the async phases ("b"/"e") matched by (cat, id), which joins a begin and
// end even when they sit on different pids — a migration begins on the
// shedder and ends on the root. The counter registry snapshot rides along
// under otherData, which trace viewers ignore.
//
// Events are written in the canonical (TS, Src, Seq) order with every field
// hand-formatted in a fixed order, so the output is byte-identical for
// identical event streams — the property the shard-equivalence gate diffs.
// Span and parent refs are hex strings, not JSON numbers: a ref packs
// (source+1)<<40 | seq, which exceeds float64's 2^53 exact-integer range at
// large source ids.
func (t *Trace) WriteChrome(w io.Writer) error {
	events := t.Events()
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[")
	tids := subsystemLanes()
	for i := range events {
		ev := &events[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n{")
		sub := ev.Kind.Subsystem()
		fmt.Fprintf(bw, "\"name\":%q,\"cat\":%q,\"ph\":%q,", ev.Kind.String(), sub, string(ev.Phase))
		if ev.Phase == PhaseBegin || ev.Phase == PhaseEnd {
			fmt.Fprintf(bw, "\"id\":\"0x%x\",", uint64(ev.Span))
		}
		fmt.Fprintf(bw, "\"pid\":%d,\"tid\":%d,\"ts\":%s,", ev.Src, tids[sub], chromeTS(ev.TS))
		if ev.Phase == PhaseInstant {
			bw.WriteString("\"s\":\"t\",")
		}
		fmt.Fprintf(bw, "\"args\":{\"parent\":\"0x%x\",\"a\":%d,\"b\":%d,\"seq\":%d}}",
			uint64(ev.Parent), ev.A, ev.B, ev.Seq)
	}
	// The sampled series rides along as counter events ("ph":"C"), one per
	// (instant, metric), so Perfetto plots each metric as a counter track
	// next to the spans. Rows in time order, sorted names within a row:
	// byte-stable, like everything above.
	if ser := t.Series(); ser.Len() > 0 {
		names := ser.Names()
		n := len(events)
		for row, ts := range ser.Times() {
			for _, name := range names {
				if n > 0 {
					bw.WriteByte(',')
				}
				n++
				fmt.Fprintf(bw, "\n{\"name\":%q,\"cat\":\"series\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":%s,\"args\":{\"value\":%d}}",
					name, chromeTS(ts), ser.Col(name)[row])
			}
		}
	}
	bw.WriteString("\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{\"counters\":")
	snap := t.Registry().Snapshot()
	if snap == nil {
		snap = map[string]int64{}
	}
	counterJSON, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	bw.Write(counterJSON)
	bw.WriteString("}}\n")
	return bw.Flush()
}

// chromeTS renders a virtual time as decimal microseconds with nanosecond
// precision, avoiding float formatting so equal inputs always render
// identically.
func chromeTS(d time.Duration) string {
	return fmt.Sprintf("%d.%03d", d/time.Microsecond, d%time.Microsecond)
}

// subsystemLanes assigns each subsystem a stable tid for the viewer.
func subsystemLanes() map[string]int {
	return map[string]int{
		"pastry":      1,
		"scribe":      2,
		"aggregation": 3,
		"rebalance":   4,
		"migration":   5,
		"net":         6,
		"other":       7,
	}
}

// chromeEvent mirrors one trace_event entry for the reader.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	ID   string  `json:"id,omitempty"`
	Pid  int64   `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Args struct {
		Parent string `json:"parent"`
		A      int64  `json:"a"`
		B      int64  `json:"b"`
		Seq    uint64 `json:"seq"`
		Value  int64  `json:"value"`
	} `json:"args"`
}

type chromeDoc struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	OtherData   struct {
		Counters map[string]int64 `json:"counters"`
	} `json:"otherData"`
}

// ReadChromeSeries parses a trace file written by WriteChrome back into
// events, the counter snapshot and the sampled series. The series is nil
// when the file carries no counter events; its interval is inferred from
// the first two sampling instants.
func ReadChromeSeries(r io.Reader) ([]Event, map[string]int64, *Series, error) {
	var doc chromeDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, nil, nil, fmt.Errorf("parse trace: %w", err)
	}
	events := make([]Event, 0, len(doc.TraceEvents))
	var ser *Series
	for i, ce := range doc.TraceEvents {
		if ce.Ph == "C" {
			// One series cell. Counter events are written row-major in
			// time order, so a new timestamp starts a new sample row.
			ts := time.Duration(math.Round(ce.Ts * 1e3))
			if ser == nil {
				ser = NewSeries(0)
			}
			if len(ser.times) == 0 || ser.times[len(ser.times)-1] != ts {
				ser.times = append(ser.times, ts)
			}
			ser.set(len(ser.times)-1, ce.Name, ce.Args.Value)
			continue
		}
		kind := kindFromName(ce.Name)
		if kind == 0 {
			return nil, nil, nil, fmt.Errorf("event %d: unknown kind %q", i, ce.Name)
		}
		if len(ce.Ph) != 1 {
			return nil, nil, nil, fmt.Errorf("event %d: bad phase %q", i, ce.Ph)
		}
		span, err := parseRef(ce.ID)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("event %d: span id: %w", i, err)
		}
		parent, err := parseRef(ce.Args.Parent)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("event %d: parent: %w", i, err)
		}
		events = append(events, Event{
			TS:     time.Duration(math.Round(ce.Ts * 1e3)),
			Src:    int32(ce.Pid),
			Seq:    ce.Args.Seq,
			Kind:   kind,
			Phase:  ce.Ph[0],
			Span:   span,
			Parent: parent,
			A:      ce.Args.A,
			B:      ce.Args.B,
		})
	}
	if ser != nil {
		for i := range ser.cols {
			for len(ser.cols[i]) < len(ser.times) {
				ser.cols[i] = append(ser.cols[i], 0)
			}
		}
		if len(ser.times) >= 2 {
			ser.every = ser.times[1] - ser.times[0]
		}
	}
	return events, doc.OtherData.Counters, ser, nil
}

func parseRef(s string) (Ref, error) {
	if s == "" {
		return NoRef, nil
	}
	if len(s) > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return NoRef, err
	}
	return Ref(v), nil
}
