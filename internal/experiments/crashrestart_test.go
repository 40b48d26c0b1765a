package experiments

import (
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
