package main

import (
	"bytes"
	"testing"
	"time"

	"vbundle/internal/experiments"
)

// TestPlacementTrialsOrderedBySeed: -trials runs one placement a seed, and
// fanOut hands the outcomes back in seed order however the runs finish.
func TestPlacementTrialsOrderedBySeed(t *testing.T) {
	p := experiments.PlacementParams{Spec: experiments.ScaledSpec(64), VMsPerWavePerCustomer: 20, Seed: 2}
	ps, err := trials(p, 3, func(p *experiments.PlacementParams) *int64 { return &p.Seed })
	if err != nil {
		t.Fatal(err)
	}
	outs, err := fanOut(ps, 0, experiments.RunPlacement)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(outs))
	}
	for i, out := range outs {
		if want := p.Seed + int64(i); out.Params.Seed != want {
			t.Errorf("outcome %d has seed %d, want %d", i, out.Params.Seed, want)
		}
		if out.Waves[0].Placed == 0 {
			t.Errorf("outcome %d placed no VMs", i)
		}
	}
}

// TestRebalanceSweepMatchesIndividualRuns: each variant owns a full private
// stack, so a variant fanned out beside others prints what it prints alone.
func TestRebalanceSweepMatchesIndividualRuns(t *testing.T) {
	var variants []experiments.RebalanceParams
	for _, thr := range []float64{0.1, 0.3} {
		variants = append(variants, experiments.RebalanceParams{
			Spec:              experiments.ScaledSpec(100),
			VMsPerServer:      10,
			Threshold:         thr,
			UpdateInterval:    time.Minute,
			RebalanceInterval: 5 * time.Minute,
			Duration:          40 * time.Minute,
			SampleEvery:       time.Minute,
			Seed:              5,
		})
	}
	swept, err := fanOut(variants, 0, experiments.RunRebalance)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != len(variants) {
		t.Fatalf("sweep returned %d outcomes, want %d", len(swept), len(variants))
	}
	for i, v := range variants {
		solo, err := experiments.RunRebalance(v)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		solo.WriteFig9(&a)
		swept[i].WriteFig9(&b)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("variant %d (thr=%g): sweep outcome differs from standalone run:\n--- solo\n%s--- sweep\n%s",
				i, v.Threshold, a.String(), b.String())
		}
	}
}
