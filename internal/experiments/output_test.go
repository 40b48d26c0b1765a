package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vbundle/internal/core"
)

func TestWriteSVGsAndJSON(t *testing.T) {
	out, err := RunQoS(QoSParams{Seed: 1, Duration: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteSVGs(dir, out.Charts()); err != nil {
		t.Fatal(err)
	}
	for _, stem := range []string{"fig12-failed-calls", "fig13-rt-cdf"} {
		data, err := os.ReadFile(filepath.Join(dir, stem+".svg"))
		if err != nil {
			t.Fatalf("%s: %v", stem, err)
		}
		if !strings.HasPrefix(string(data), "<svg") {
			t.Fatalf("%s is not SVG", stem)
		}
	}

	jsonPath := filepath.Join(dir, "out.json")
	if err := WriteJSON(jsonPath, out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := decoded["FailedCalls"]; !ok {
		t.Fatalf("JSON missing FailedCalls: %v", decoded)
	}
}

func TestPlacementChartsPerWave(t *testing.T) {
	out, err := RunPlacement(PlacementParams{
		Spec:                  ScaledSpec(64),
		VMsPerWavePerCustomer: 10,
		Waves:                 2,
		Engine:                core.EngineDHT,
		Seed:                  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	charts := out.Charts()
	if len(charts) != 2 {
		t.Fatalf("charts = %d, want one per wave", len(charts))
	}
	for stem, chart := range charts {
		doc := chart.Render()
		if !strings.Contains(doc, "Accolade") {
			t.Errorf("%s missing customer legend", stem)
		}
	}
}

func TestRebalanceChartsComplete(t *testing.T) {
	out, err := RunRebalance(smallRebalance(0.1))
	if err != nil {
		t.Fatal(err)
	}
	charts := out.Charts()
	for _, stem := range []string{"fig9-utilization", "fig10-sd", "fig11-satisfied"} {
		if charts[stem] == nil {
			t.Errorf("missing chart %s", stem)
		}
	}
	sweep, err := RunAggLatency(AggLatencyParams{Sizes: []int{16, 32}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Charts()["fig14-agg-latency"] == nil {
		t.Error("missing fig14 chart")
	}
	msg, err := RunMessageOverhead(MessageOverheadParams{Sizes: []int{32}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if msg.Charts()["fig15-msgs-per-round"] == nil {
		t.Error("missing fig15 chart")
	}
}

// TestOutcomeJSONKeepsFlatParams: RunConfig and Artifacts are embedded, so
// an outcome's JSON carries Seed, Shards, Obs and Audit side by side under
// Params, as when each …Params declared them, and no run artifact.
func TestOutcomeJSONKeepsFlatParams(t *testing.T) {
	for _, o := range []any{&PlacementOutcome{}, &ChurnOutcome{}, &RebalanceOutcome{}, &QoSOutcome{},
		&AggLatencyOutcome{}, &MessageOverheadOutcome{}, &FaultOutcome{}, &ServeOutcome{}} {
		raw, err := json.Marshal(o)
		if err != nil {
			t.Fatalf("%T: %v", o, err)
		}
		var top, params map[string]json.RawMessage
		if err := json.Unmarshal(raw, &top); err != nil {
			t.Fatalf("%T: %v", o, err)
		}
		if err := json.Unmarshal(top["Params"], &params); err != nil {
			t.Fatalf("%T: Params: %v", o, err)
		}
		for _, k := range []string{"Seed", "Shards", "Obs", "Audit"} {
			if _, ok := params[k]; !ok {
				t.Errorf("%T: no %s under Params in %s", o, k, raw)
			}
		}
		if _, ok := top["Audit"]; ok {
			t.Errorf("%T: JSON has an outcome-level Audit key: %s", o, raw)
		}
		for _, k := range []string{`"RunConfig"`, `"Artifacts"`, `"Trace"`} {
			if strings.Contains(string(raw), k) {
				t.Errorf("%T: JSON has a %s key: %s", o, k, raw)
			}
		}
	}
}
