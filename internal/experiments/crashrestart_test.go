package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vbundle/internal/obs"
)

func smallCrashRestart(seed int64, cfg obs.Config) FaultParams {
	return FaultParams{
		RebalanceParams: RebalanceParams{
			Spec:              ScaledSpec(512),
			VMsPerServer:      4,
			Threshold:         0.1,
			UpdateInterval:    2 * time.Minute,
			RebalanceInterval: 6 * time.Minute,
			Duration:          30 * time.Minute,
			SampleEvery:       2 * time.Minute,
			Seed:              seed,
			RunConfig:         RunConfig{Obs: cfg},
		},
		LeaseDuration: 5 * time.Minute,
		Heartbeat:     time.Minute,
		DropRate:      0.02,
		Victims:       2,
		Crash:         true,
		CrashForever:  1,
		RestartAfter:  4 * time.Minute,
	}
}

// TestCrashRestartRecoveryGate is the crash-restart property test: across
// seeds, a run that truly crashes receivers (blank handler, reboot from the
// durable store) must end with every VM accounted for and no reservation
// leaked — neither in a live table nor hidden in a dead node's store.
func TestCrashRestartRecoveryGate(t *testing.T) {
	for _, seed := range []int64{5, 11, 23} {
		out, err := RunFaults(smallCrashRestart(seed, obs.Config{}))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Victims) != 2 || len(out.Dead) != 1 {
			t.Fatalf("seed %d: crashed %v, dead %v; want 2 restarted + 1 left down", seed, out.Victims, out.Dead)
		}
		if out.Recovery.Restarts != len(out.Victims) {
			t.Fatalf("seed %d: %d restarts served for %d crashes", seed, out.Recovery.Restarts, len(out.Victims))
		}
		if out.Recovery.BlankBoots != 0 {
			t.Fatalf("seed %d: %d blank boots — the store held nothing for a node that had checkpointed", seed, out.Recovery.BlankBoots)
		}
		if !out.GatePassed() {
			t.Fatalf("seed %d: recovery gate failed: lostVMs=%d lostPlacements=%d leaked=%d VMs %d→%d",
				seed, out.LostVMs, out.Recovery.LostPlacements, out.Leaked, out.VMsBefore, out.VMsAfter)
		}
		if out.Recovery.VerifiedPlacements == 0 {
			t.Fatalf("seed %d: restarts verified no placements; the reconcile path would be vacuous", seed)
		}
	}
}

// TestCrashRestartTracingInvariance: recording off, ring-bounded or
// streaming must not change a single recovery metric, and the streamed
// trace must explain the crash→rejoin chain.
func TestCrashRestartTracingInvariance(t *testing.T) {
	render := func(cfg obs.Config) ([]byte, *FaultOutcome) {
		out, err := RunFaults(smallCrashRestart(7, cfg))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		out.Write(&buf)
		WriteFaultTable(&buf, []*FaultOutcome{out})
		return buf.Bytes(), out
	}
	off, _ := render(obs.Config{})
	if !strings.Contains(string(off), "gate PASS") {
		t.Fatalf("reference run failed its own gate:\n%s", off)
	}
	var traced *FaultOutcome
	for _, tc := range []struct {
		name string
		cfg  obs.Config
	}{
		{"ring", obs.Config{Ring: 4096}},
		{"stream", obs.Config{Stream: true}},
	} {
		got, out := render(tc.cfg)
		if !bytes.Equal(off, got) {
			t.Errorf("%s recording changed recovery metrics:\noff:\n%s\n%s:\n%s", tc.name, off, tc.name, got)
		}
		if tc.name == "stream" {
			traced = out
		}
	}

	// The streamed trace must carry the crash→restart→rejoin→lease_adopt
	// chain and the explainer must walk it.
	events := traced.Trace.Events()
	counts := map[obs.Kind]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	if counts[obs.KindCrash] == 0 || counts[obs.KindRestart] == 0 || counts[obs.KindRejoin] == 0 {
		t.Fatalf("trace lacks the recovery chain: crash=%d restart=%d rejoin=%d",
			counts[obs.KindCrash], counts[obs.KindRestart], counts[obs.KindRejoin])
	}
	var buf bytes.Buffer
	if n := obs.NewIndex(events).ExplainCrashes(&buf, -1, 10); n == 0 {
		t.Fatal("ExplainCrashes found no crashes in a run that had them")
	}
	for _, want := range []string{"rejoin", "durable state found"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("crash explanation lacks %q:\n%s", want, buf.String())
		}
	}
}
