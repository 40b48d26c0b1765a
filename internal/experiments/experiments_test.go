package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vbundle/internal/core"
	"vbundle/internal/metrics"
)

func TestScaledSpec(t *testing.T) {
	for _, n := range []int{1, 16, 100, 512, 3000} {
		spec := ScaledSpec(n)
		got := spec.Racks * spec.ServersPerRack
		if got < n || got > n+spec.ServersPerRack {
			t.Errorf("ScaledSpec(%d) yields %d servers", n, got)
		}
	}
}

func smallPlacement(engine core.EngineKind, waves int) PlacementParams {
	// 128 servers × 10 VM slots; 100 VMs per customer per wave means the
	// cluster fills enough that placement strategy matters across racks.
	return PlacementParams{
		Spec:                  ScaledSpec(128),
		VMsPerWavePerCustomer: 100,
		Waves:                 waves,
		Engine:                engine,
		Seed:                  3,
	}
}

func TestFig7DHTPlacementClusters(t *testing.T) {
	out, err := RunPlacement(smallPlacement(core.EngineDHT, 1))
	if err != nil {
		t.Fatal(err)
	}
	w := out.Waves[0]
	if w.Failed != 0 {
		t.Fatalf("%d placements failed", w.Failed)
	}
	if w.Placed != 100*len(Customers) {
		t.Fatalf("placed %d", w.Placed)
	}
	if frac := w.Quality.SameRackPairFraction(); frac < 0.9 {
		t.Errorf("same-rack fraction %g, want >= 0.9", frac)
	}
	var buf bytes.Buffer
	out.Report(&buf)
	if !strings.Contains(buf.String(), "Fig 7") {
		t.Error("report missing figure id")
	}
}

func TestFig8DHTBeatsGreedyAfterSecondWave(t *testing.T) {
	dht, err := RunPlacement(smallPlacement(core.EngineDHT, 2))
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := RunPlacement(smallPlacement(core.EngineGreedy, 2))
	if err != nil {
		t.Fatal(err)
	}
	d := dht.Waves[1].Quality.SameRackPairFraction()
	g := greedy.Waves[1].Quality.SameRackPairFraction()
	if d <= g {
		t.Errorf("DHT locality %.3f not better than greedy %.3f after wave 2", d, g)
	}
	// Shared-uplink traffic ordering must match (the figure's real point).
	// At this scale all racks share one pod, so cross-rack traffic is the
	// bi-section proxy.
	db := dht.Waves[1].Quality.Load.CrossRackMbps()
	gb := greedy.Waves[1].Quality.Load.CrossRackMbps()
	if db >= gb {
		t.Errorf("DHT cross-rack %.0f not lower than greedy %.0f", db, gb)
	}
	var buf bytes.Buffer
	greedy.Report(&buf)
	if !strings.Contains(buf.String(), "Fig 8b") {
		t.Error("greedy two-wave report should be Fig 8b")
	}
}

func smallRebalance(threshold float64) RebalanceParams {
	return RebalanceParams{
		Spec:              ScaledSpec(100),
		VMsPerServer:      10,
		Threshold:         threshold,
		UpdateInterval:    time.Minute,
		RebalanceInterval: 5 * time.Minute,
		Duration:          40 * time.Minute,
		SampleEvery:       time.Minute,
		Seed:              5,
	}
}

func TestFig9ReliefAndThresholdEffect(t *testing.T) {
	strict, err := RunRebalance(smallRebalance(0.1))
	if err != nil {
		t.Fatal(err)
	}
	loose, err := RunRebalance(smallRebalance(0.3))
	if err != nil {
		t.Fatal(err)
	}
	// Mean utilization is near the paper's 0.6226 target.
	if strict.MeanUtil < 0.5 || strict.MeanUtil > 0.75 {
		t.Errorf("mean util %.3f far from target", strict.MeanUtil)
	}
	// Overloaded servers get relief.
	for _, o := range []*RebalanceOutcome{strict, loose} {
		limit := o.MeanUtil + o.Params.Threshold + 0.05
		before := CountAbove(o.Before, limit)
		after := CountAbove(o.After, limit)
		if before == 0 {
			t.Fatalf("no overloaded servers before (thr %.2g)", o.Params.Threshold)
		}
		if after >= before {
			t.Errorf("thr %.2g: overloaded before=%d after=%d", o.Params.Threshold, before, after)
		}
	}
	// Smaller threshold involves more servers: more migrations.
	if strict.Migrations <= loose.Migrations {
		t.Errorf("thr 0.1 migrations %d <= thr 0.3 migrations %d", strict.Migrations, loose.Migrations)
	}
	var buf bytes.Buffer
	strict.WriteFig9(&buf)
	if !strings.Contains(buf.String(), "mean utilization line") {
		t.Error("Fig 9 report incomplete")
	}
}

func TestFig10SDDropsAtBothScales(t *testing.T) {
	convergence := func(servers int) (first, last float64) {
		p := smallRebalance(0.183)
		p.Spec = ScaledSpec(servers)
		p.Seed = 11
		out, err := RunRebalance(p)
		if err != nil {
			t.Fatal(err)
		}
		pts := out.SD.Points()
		return pts[0].V, pts[len(pts)-1].V
	}
	f30, l30 := convergence(30)
	f120, l120 := convergence(120)
	if l30 >= f30 {
		t.Errorf("30 servers: SD %.4f -> %.4f did not drop", f30, l30)
	}
	if l120 >= f120 {
		t.Errorf("120 servers: SD %.4f -> %.4f did not drop", f120, l120)
	}
}

func TestFig11SatisfiedApproachesDemand(t *testing.T) {
	out, err := RunRebalance(smallRebalance(0.1))
	if err != nil {
		t.Fatal(err)
	}
	d, s := out.Demand.Points(), out.Satisfied.Points()
	gapStart := d[0].V - s[0].V
	gapEnd := d[len(d)-1].V - s[len(s)-1].V
	if gapStart <= 0 {
		t.Fatal("no initial demand gap; scenario not overloaded")
	}
	if gapEnd >= gapStart {
		t.Errorf("gap did not close: %.0f -> %.0f Mbps", gapStart, gapEnd)
	}
	var buf bytes.Buffer
	out.WriteFig10(&buf)
	out.WriteFig11(&buf)
	if !strings.Contains(buf.String(), "satisfied=") {
		t.Error("Fig 11 report incomplete")
	}
}

func TestFig12And13QoSRecovers(t *testing.T) {
	out, err := RunQoS(QoSParams{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Migrations == 0 {
		t.Fatal("rebalancer never migrated; no QoS story")
	}
	// Failures present before the first migration, (near) absent after the
	// window closes.
	var beforeFails, afterFails, afterSamples float64
	for _, pt := range out.FailedCalls.Points() {
		switch {
		case out.FirstMigrationAt == 0 || pt.T < out.FirstMigrationAt:
			beforeFails += pt.V
		case pt.T > out.LastMigrationAt:
			afterFails += pt.V
			afterSamples++
		}
	}
	if beforeFails == 0 {
		t.Fatal("no failed calls before rebalancing; bottleneck missing")
	}
	if afterSamples > 0 && afterFails >= beforeFails/10 {
		t.Errorf("failures barely improved: before=%.0f after=%.0f", beforeFails, afterFails)
	}
	// Fig 13: response-time CDF shifts left.
	if out.RTBefore.N() == 0 || out.RTAfter.N() == 0 {
		t.Fatal("missing RT samples")
	}
	pBefore, pAfter := out.RTBefore.At(10), out.RTAfter.At(10)
	if pAfter <= pBefore {
		t.Errorf("P(RT<=10ms) did not improve: %.3f -> %.3f", pBefore, pAfter)
	}
	if pAfter < 0.8 {
		t.Errorf("post-rebalance P(RT<=10ms) = %.3f, want >= 0.8", pAfter)
	}
	var buf bytes.Buffer
	out.WriteFig12(&buf)
	out.WriteFig13(&buf)
	if !strings.Contains(buf.String(), "P(RT <= 10ms)") {
		t.Error("Fig 13 report incomplete")
	}
}

func TestFig14LatencyGrowsLinearlyWithExponentialServers(t *testing.T) {
	out, err := RunAggLatency(AggLatencyParams{Sizes: []int{16, 64, 256}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != 3 {
		t.Fatalf("points = %d", len(out.Points))
	}
	for i, pt := range out.Points {
		if pt.RawMean <= 0 {
			t.Fatalf("size %d: no latency measured", pt.Servers)
		}
		if pt.WithInterval != pt.RawMean+aggSendInterval {
			t.Fatal("WithInterval arithmetic")
		}
		if i > 0 && pt.RawMean < out.Points[i-1].RawMean {
			t.Errorf("latency decreased from %d to %d servers", out.Points[i-1].Servers, pt.Servers)
		}
		if pt.TreeHeight < 1 {
			t.Errorf("size %d: tree height %d", pt.Servers, pt.TreeHeight)
		}
	}
	// Growth is far slower than server count: 16× the servers must not
	// cost 16× the latency (the paper's "linear vs exponential" claim).
	ratio := float64(out.Points[2].RawMean) / float64(out.Points[0].RawMean)
	if ratio > 6 {
		t.Errorf("latency ratio %.1f for 16x servers; growth not logarithmic", ratio)
	}
	var buf bytes.Buffer
	out.Report(&buf)
	if !strings.Contains(buf.String(), "tree height") {
		t.Error("Fig 14 report incomplete")
	}
}

func TestFig15OverheadGrowsSubLinearly(t *testing.T) {
	out, err := RunMessageOverhead(MessageOverheadParams{Sizes: []int{64, 256}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small, large := &out.Points[0], &out.Points[1]
	if small.Msgs.N() == 0 || large.Msgs.N() == 0 {
		t.Fatal("no counters collected")
	}
	p90s, p90l := small.Msgs.Quantile(0.9), large.Msgs.Quantile(0.9)
	if p90l <= 0 {
		t.Fatal("no traffic at 256 servers")
	}
	// 4× the servers must cost far less than 4× the per-host messages.
	if p90l > 2.5*p90s {
		t.Errorf("p90 msgs grew %0.f -> %.0f for 4x servers; not logarithmic", p90s, p90l)
	}
	var buf bytes.Buffer
	out.Report(&buf)
	if !strings.Contains(buf.String(), "msg p90") {
		t.Error("Fig 15 report incomplete")
	}
}

func TestTable1MeasuresAllOperations(t *testing.T) {
	out, err := RunTable1(Table1Params{Servers: 64, Iterations: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"subscribe", "unsubscribe", "publish (multicast)", "any-cast", "aggregation update"}
	if len(out.Rows) != len(want) {
		t.Fatalf("rows = %d", len(out.Rows))
	}
	for i, r := range out.Rows {
		if r.Operation != want[i] {
			t.Errorf("row %d = %s, want %s", i, r.Operation, want[i])
		}
		if r.PerOp <= 0 {
			t.Errorf("%s: non-positive per-op time", r.Operation)
		}
	}
	var buf bytes.Buffer
	out.Report(&buf)
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("Table I report incomplete")
	}
}

func TestChurnDHTKeepsLocality(t *testing.T) {
	run := func(engine core.EngineKind) *ChurnOutcome {
		spec := ScaledSpec(120)
		spec.ServersPerRack = 8 // narrow racks so locality is non-trivial
		spec.Racks = 15
		out, err := RunChurn(ChurnParams{
			Spec:                  spec,
			InitialVMsPerCustomer: 30,
			ArrivalsPerMinute:     1,
			MeanLifetime:          20 * time.Minute,
			Duration:              2 * time.Hour,
			SampleEvery:           10 * time.Minute,
			Engine:                engine,
			Seed:                  4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	dht := run(core.EngineDHT)
	greedy := run(core.EngineGreedy)

	if dht.Arrived == 0 || dht.Departed == 0 {
		t.Fatalf("no churn happened: %+v", dht)
	}
	if dht.MeanLocality <= greedy.MeanLocality {
		t.Errorf("DHT locality %.3f not better than greedy %.3f under churn",
			dht.MeanLocality, greedy.MeanLocality)
	}
	// DHT locality must stay high across the whole run, not just at the
	// start ("space to grow or shrink").
	for _, pt := range dht.Locality.Points() {
		if pt.V < 0.6 {
			t.Errorf("DHT locality dropped to %.3f at %s", pt.V, pt.T)
		}
	}
	var buf bytes.Buffer
	dht.Report(&buf)
	if !strings.Contains(buf.String(), "sameRackFraction") {
		t.Error("churn report incomplete")
	}
}

func TestCountAbove(t *testing.T) {
	if CountAbove([]float64{0.1, 0.5, 0.9}, 0.4) != 2 {
		t.Fatal("CountAbove")
	}
	var s metrics.Stats
	_ = s // keep metrics import for the shared helpers
}
