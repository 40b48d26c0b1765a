package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"vbundle/internal/core"
	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/scribe"
	"vbundle/internal/simnet"
)

// Table1Params configures the Table I micro-measurements: the computation
// overhead of v-Bundle's pub-sub operations — subscribe, unsubscribe,
// publish (multicast), any-cast discovery, and an aggregation update — all
// measured as wall-clock time to process the full operation through the
// simulated stack, averaged over many iterations as the paper does
// (nanoTime over 1000 runs).
type Table1Params struct {
	// Servers is the ring size the operations run on.
	Servers int
	// Iterations is the number of runs averaged per operation.
	Iterations int
	// Seed drives the build.
	Seed int64
}

func (p Table1Params) withDefaults() Table1Params {
	if p.Servers == 0 {
		p.Servers = 512
	}
	if p.Iterations == 0 {
		p.Iterations = 1000
	}
	return p
}

func (p Table1Params) check() error {
	return errors.Join(notNegative("Servers", p.Servers), notNegative("Iterations", p.Iterations))
}

// Table1Row is one measured operation.
type Table1Row struct {
	Operation string
	// PerOp is the mean wall-clock computation time of one operation,
	// including every message hop it triggers.
	PerOp time.Duration
	// Note qualifies what one operation spans.
	Note string
}

// Table1Outcome is the measured table.
type Table1Outcome struct {
	Params Table1Params
	Rows   []Table1Row
}

// RunTable1 executes the micro-measurements.
func RunTable1(p Table1Params) (*Table1Outcome, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	spec := ScaledSpec(p.Servers)
	spec.LANHop = time.Millisecond
	ov, err := core.NewOverlay(core.Options{Topology: spec, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	engine, scribes, managers := ov.Engine, ov.Scribes, ov.Aggs
	out := &Table1Outcome{Params: p}
	n := len(scribes)

	// Pre-build a fully subscribed group for publish/anycast measurements,
	// and a pre-subscribed aggregation topic.
	busy := scribe.GroupKey("table1-busy")
	for _, s := range scribes {
		s.Join(busy, scribe.Handlers{
			OnAnycast: func(ids.Id, simnet.Message, pastry.NodeHandle) bool { return true },
		})
	}
	for _, m := range managers {
		m.Subscribe("table1-topic", nil)
	}
	engine.Run()

	measure := func(op, note string, iters int, fn func(i int)) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
			engine.Run() // drain the operation's full message cascade
		}
		out.Rows = append(out.Rows, Table1Row{
			Operation: op,
			PerOp:     time.Since(start) / time.Duration(iters),
			Note:      note,
		})
	}

	scratch := scribe.GroupKey("table1-scratch")
	measure("subscribe", "join routed + grafted onto tree", p.Iterations, func(i int) {
		scribes[(i*31+1)%n].Join(scratch, scribe.Handlers{})
	})
	measure("unsubscribe", "leave + tree pruning", p.Iterations, func(i int) {
		scribes[(i*31+1)%n].Leave(scratch)
	})
	pubIters := p.Iterations / 10
	if pubIters == 0 {
		pubIters = 1
	}
	measure("publish (multicast)", fmt.Sprintf("dissemination to all %d members", n), pubIters, func(i int) {
		scribes[i%n].Multicast(busy, i)
	})
	measure("any-cast", "depth-first discovery of one acceptor", p.Iterations, func(i int) {
		scribes[i%n].Anycast(busy, i, nil)
	})
	measure("aggregation update", "leaf update cascaded to root", p.Iterations, func(i int) {
		managers[i%n].SetLocal("table1-topic", float64(i))
	})
	return out, nil
}

// Report renders the table.
func (o *Table1Outcome) Report(w io.Writer) {
	writeHeader(w, "Table I", fmt.Sprintf("computation overhead of v-Bundle operations (%d servers, %d iterations)",
		o.Params.Servers, o.Params.Iterations))
	fmt.Fprintf(w, "%-22s %-14s %s\n", "operation", "per op", "covers")
	for _, r := range o.Rows {
		fmt.Fprintf(w, "%-22s %-14s %s\n", r.Operation, r.PerOp, r.Note)
	}
}
