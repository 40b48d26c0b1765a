package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// seriesTrace builds a trace with a live registry and three sampled rows,
// including a metric that first appears on the second row (the backfill
// path).
func seriesTrace(t *testing.T) (*Trace, *Counter, *Histogram) {
	t.Helper()
	tr := New()
	ser := tr.EnableSeries(time.Second)
	c := &Counter{}
	tr.Registry().Register("net/msgs", c)
	h := &Histogram{}

	c.Add(3)
	ser.Sample(1*time.Second, tr.Registry())

	// A histogram registered after the first sample: its derived columns
	// must backfill row 0 with zeros.
	tr.Registry().RegisterHistogram("lat_ns", h)
	c.Add(2)
	h.Record(100)
	h.Record(200)
	ser.Sample(2*time.Second, tr.Registry())

	c.Add(1)
	ser.Sample(3*time.Second, tr.Registry())
	return tr, c, h
}

func TestSeriesSampleAndBackfill(t *testing.T) {
	tr, _, _ := seriesTrace(t)
	ser := tr.Series()
	if ser.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ser.Len())
	}
	if got := ser.Col("net/msgs"); !reflect.DeepEqual(got, []int64{3, 5, 6}) {
		t.Errorf("net/msgs = %v, want [3 5 6]", got)
	}
	if got := ser.Col("lat_ns/count"); !reflect.DeepEqual(got, []int64{0, 2, 2}) {
		t.Errorf("lat_ns/count = %v, want [0 2 2] (zero-backfilled row 0)", got)
	}
	if got := ser.Col("lat_ns/max"); !reflect.DeepEqual(got, []int64{0, 200, 200}) {
		t.Errorf("lat_ns/max = %v, want [0 200 200]", got)
	}
	if ser.Col("absent") != nil {
		t.Error("Col of unknown name is non-nil")
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	tr, _, _ := seriesTrace(t)
	var buf bytes.Buffer
	if err := tr.Series().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want 4 (header + 3 rows):\n%s", len(lines), buf.String())
	}
	wantHeader := "t_ns,lat_ns/count,lat_ns/max,lat_ns/p50,lat_ns/p99,lat_ns/p999,net/msgs"
	if lines[0] != wantHeader {
		t.Errorf("header = %q, want %q", lines[0], wantHeader)
	}
	if !strings.HasPrefix(lines[1], "1000000000,0,0,0,0,0,3") {
		t.Errorf("row 0 = %q", lines[1])
	}
}

func TestSeriesNilSafe(t *testing.T) {
	var ser *Series
	if ser.Len() != 0 || ser.Every() != 0 || ser.Times() != nil || ser.Names() != nil || ser.Col("x") != nil {
		t.Error("nil series reads nonzero")
	}
	ser.Sample(time.Second, nil)
	var buf bytes.Buffer
	if err := ser.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "t_ns\n" {
		t.Errorf("nil series CSV = %q, want header only", got)
	}
}

// TestChromeSeriesRoundTrip is the counter-event round-trip gate: a trace
// serialized with a sample series must read back with identical events,
// counters, times, names, columns and inferred interval.
func TestChromeSeriesRoundTrip(t *testing.T) {
	tr, _, _ := seriesTrace(t)
	// Give the trace some span events too, so the reader has to divert
	// counter events away from the span path.
	src := tr.Source(4)
	ref := src.Begin(1500*time.Millisecond, KindMigration, NoRef, 9, 1)
	src.End(2500*time.Millisecond, KindMigration, ref, 9, 0)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	events, counters, ser, err := ReadChromeSeries(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := tr.Events(); !reflect.DeepEqual(events, want) {
		t.Errorf("events did not round-trip:\ngot  %+v\nwant %+v", events, want)
	}
	if counters["net/msgs"] != 6 {
		t.Errorf("counters = %v, want net/msgs 6", counters)
	}

	orig := tr.Series()
	if !reflect.DeepEqual(ser.Times(), orig.Times()) {
		t.Errorf("times = %v, want %v", ser.Times(), orig.Times())
	}
	if ser.Every() != orig.Every() {
		t.Errorf("inferred every = %v, want %v", ser.Every(), orig.Every())
	}
	if !reflect.DeepEqual(ser.Names(), orig.Names()) {
		t.Errorf("names = %v, want %v", ser.Names(), orig.Names())
	}
	for _, name := range orig.Names() {
		if !reflect.DeepEqual(ser.Col(name), orig.Col(name)) {
			t.Errorf("column %s = %v, want %v", name, ser.Col(name), orig.Col(name))
		}
	}

	// The CSV of the reconstruction must match the original byte for byte —
	// what vb trace series and vb metrics csv print.
	var a, b bytes.Buffer
	if err := orig.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := ser.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("CSV did not round-trip:\noriginal:\n%s\nreconstructed:\n%s", a.String(), b.String())
	}
}

func TestEnableSeriesIdempotent(t *testing.T) {
	tr := New()
	a := tr.EnableSeries(time.Second)
	b := tr.EnableSeries(2 * time.Second)
	if a != b {
		t.Error("EnableSeries created a second series")
	}
	if a.Every() != time.Second {
		t.Errorf("second EnableSeries changed the interval to %v", a.Every())
	}
	var nilTrace *Trace
	if nilTrace.EnableSeries(time.Second) != nil || nilTrace.Series() != nil {
		t.Error("nil trace EnableSeries/Series non-nil")
	}
}

// TestRingDroppedEdges pins Dropped() accounting at the boundaries the
// wraparound test does not cover: exactly-full ring, capacity-1 ring, and
// the nil source.
func TestRingDroppedEdges(t *testing.T) {
	// Exactly full: seq == len(buf), nothing dropped yet.
	tr := NewRing(4)
	s := tr.Source(0)
	for i := 0; i < 4; i++ {
		s.Instant(time.Duration(i), KindDeliver, NoRef, int64(i), 0)
	}
	if d := s.Dropped(); d != 0 {
		t.Errorf("exactly-full ring Dropped = %d, want 0", d)
	}
	// One past full: exactly one dropped.
	s.Instant(4, KindDeliver, NoRef, 4, 0)
	if d := s.Dropped(); d != 1 {
		t.Errorf("one-past-full ring Dropped = %d, want 1", d)
	}

	// Capacity-1 ring: every event except the last is dropped.
	tr1 := NewRing(1)
	s1 := tr1.Source(0)
	for i := 0; i < 7; i++ {
		s1.Instant(time.Duration(i), KindDeliver, NoRef, int64(i), 0)
	}
	if d := s1.Dropped(); d != 6 {
		t.Errorf("capacity-1 ring Dropped = %d, want 6", d)
	}
	if evs := tr1.Events(); len(evs) != 1 || evs[0].A != 6 {
		t.Errorf("capacity-1 ring retained %+v, want just the last event", evs)
	}

	// Nil source: zero, no panic.
	var nilSrc *Source
	if nilSrc.Dropped() != 0 {
		t.Error("nil source Dropped nonzero")
	}

	// Stream mode never drops.
	st := New().Source(0)
	for i := 0; i < 100; i++ {
		st.Instant(time.Duration(i), KindDeliver, NoRef, int64(i), 0)
	}
	if st.Dropped() != 0 {
		t.Error("stream source reports drops")
	}
}
