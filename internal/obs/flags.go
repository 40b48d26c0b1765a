package obs

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// Config selects a recorder mode. The zero value is disabled: Config.New
// returns a nil *Trace, and every downstream consumer of a nil trace (and
// the nil sources it hands out) is a no-op. Config is a value so parallel
// experiment sweeps can share one config while every run constructs its own
// private Trace — sources are per-run, never shared across concurrent runs.
type Config struct {
	// Stream keeps every event for a full trace file at run end.
	Stream bool
	// Ring, when > 0, bounds each source to its last Ring events.
	Ring int
	// SampleEvery, when > 0, attaches a virtual-time sample series to the
	// trace at this interval (the engine schedules the actual sampling via
	// sim.AttachObs). On its own it enables the metrics-only recorder:
	// live registry and series, no event recording.
	SampleEvery time.Duration
	// Metrics selects the metrics-only recorder explicitly: a live
	// registry with no event recording (what a -counters dump needs).
	Metrics bool
}

// New constructs the run's trace, or nil when disabled.
func (c Config) New() *Trace {
	var t *Trace
	switch {
	case c.Stream:
		t = New()
	case c.Ring > 0:
		t = NewRing(c.Ring)
	case c.SampleEvery > 0 || c.Metrics:
		// Sampling and counter dumps need a live registry but no events.
		t = NewMetrics()
	default:
		return nil
	}
	if c.SampleEvery > 0 {
		t.EnableSeries(c.SampleEvery)
	}
	return t
}

// Flags is the -trace / -trace-ring / -counters / -sample-every flag set.
// cmd/vb registers it once, on every simulating subcommand, and writes the
// artifacts in its one epilogue (failed runs included).
type Flags struct {
	// Path is the trace_event JSON output file (-trace). Without
	// -trace-ring it selects the full streaming recorder.
	Path string
	// Ring bounds recording to the last N events per source (-trace-ring);
	// combined with -trace the bounded tail is still written at run end.
	Ring int
	// Counters is a run-end JSON dump of the counter registry (-counters);
	// on its own it enables the cheapest recorder (ring of 1).
	Counters string
	// SampleEvery is the virtual-time series sampling interval
	// (-sample-every); 0 disables sampling.
	SampleEvery time.Duration
}

// AddFlags registers the recorder flags on fs.
func (f *Flags) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&f.Path, "trace", "", "write a Chrome trace_event JSON flight recording to this file")
	fs.IntVar(&f.Ring, "trace-ring", 0, "bound the flight recorder to the last N events per node (0 = unbounded stream)")
	fs.StringVar(&f.Counters, "counters", "", "write the run-end counter registry as JSON to this file")
	fs.DurationVar(&f.SampleEvery, "sample-every", 0, "sample registered metrics into a time series every this much virtual time (0 = off)")
}

// Config translates the parsed flags into a recorder mode.
func (f *Flags) Config() Config {
	c := Config{SampleEvery: f.SampleEvery}
	switch {
	case f.Ring > 0:
		c.Ring = f.Ring
	case f.Path != "":
		c.Stream = true
	case f.Counters != "":
		// Counters need a live registry but no event history.
		c.Metrics = true
	}
	return c
}

// Write emits the requested run-end artifacts from t (a no-op for a nil
// trace or when no output was requested).
func (f *Flags) Write(t *Trace) error {
	if t == nil {
		return nil
	}
	if f.Path != "" {
		out, err := os.Create(f.Path)
		if err != nil {
			return err
		}
		if err := t.WriteChrome(out); err != nil {
			out.Close()
			return fmt.Errorf("write trace %s: %w", f.Path, err)
		}
		if err := out.Close(); err != nil {
			return err
		}
	}
	if f.Counters != "" {
		out, err := os.Create(f.Counters)
		if err != nil {
			return err
		}
		if err := t.Registry().WriteJSON(out); err != nil {
			out.Close()
			return fmt.Errorf("write counters %s: %w", f.Counters, err)
		}
		if err := out.Close(); err != nil {
			return err
		}
	}
	return nil
}
