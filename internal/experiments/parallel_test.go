package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// The ISSUE-1 contract for the parallel harness: per-seed outputs of a
// sweep must be byte-identical whether the sweep points run sequentially
// or concurrently. Each trial owns its engine, ring and RNG, so any
// divergence means shared state leaked between trials.

func TestFig15ParallelMatchesSequential(t *testing.T) {
	base := MessageOverheadParams{
		Sizes:        []int{48, 96},
		Round:        30 * time.Second,
		VMsPerServer: 3,
		Seed:         7,
	}
	seq := base
	seq.Parallelism = 1
	par := base
	par.Parallelism = 0 // all cores

	so, err := RunMessageOverhead(seq)
	if err != nil {
		t.Fatal(err)
	}
	po, err := RunMessageOverhead(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(so.Points, po.Points) {
		t.Errorf("parallel Fig 15 points diverge from sequential:\nseq: %+v\npar: %+v", so.Points, po.Points)
	}
	var sb, pb bytes.Buffer
	so.Report(&sb)
	po.Report(&pb)
	// The rendered reports embed Params (including Parallelism) nowhere, so
	// the bytes must match exactly.
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Errorf("parallel Fig 15 report differs from sequential:\n--- seq\n%s--- par\n%s", sb.String(), pb.String())
	}
}

func TestFig14ParallelMatchesSequential(t *testing.T) {
	base := AggLatencyParams{Sizes: []int{16, 32, 64, 128}, Seed: 3}
	seq := base
	seq.Parallelism = 1
	par := base

	so, err := RunAggLatency(seq)
	if err != nil {
		t.Fatal(err)
	}
	po, err := RunAggLatency(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(so.Points, po.Points) {
		t.Errorf("parallel Fig 14 points diverge from sequential:\nseq: %+v\npar: %+v", so.Points, po.Points)
	}
	var sb, pb bytes.Buffer
	so.Report(&sb)
	po.Report(&pb)
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Errorf("parallel Fig 14 report differs from sequential:\n--- seq\n%s--- par\n%s", sb.String(), pb.String())
	}
}
