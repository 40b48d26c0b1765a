package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func smallResilience(drop float64, kills int) FaultParams {
	return FaultParams{
		RebalanceParams: RebalanceParams{
			Spec:              ScaledSpec(64),
			VMsPerServer:      10,
			Threshold:         0.1,
			UpdateInterval:    time.Minute,
			RebalanceInterval: 5 * time.Minute,
			Duration:          30 * time.Minute,
			Seed:              5,
		},
		LeaseDuration: 4 * time.Minute,
		DropRate:      drop,
		Victims:       kills,
	}
}

func TestResilienceRunLeaksNothing(t *testing.T) {
	out, err := RunFaults(smallResilience(0.02, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Leaked != 0 {
		t.Fatalf("%d reservations leaked (stats %+v)", out.Leaked, out.Reserve)
	}
	if len(out.Victims) != 1 {
		t.Fatalf("killed %v, want one receiver", out.Victims)
	}
	if out.MigrationsCompleted == 0 {
		t.Fatal("no migrations completed under loss")
	}
	if out.AfterSD >= out.BeforeSD {
		t.Fatalf("SD %.4f did not improve from %.4f", out.AfterSD, out.BeforeSD)
	}
	if out.Reserve.Accepted == 0 || out.Reserve.Released == 0 {
		t.Fatalf("reservation protocol never ran: %+v", out.Reserve)
	}
	var buf bytes.Buffer
	out.Write(&buf)
	WriteFaultTable(&buf, []*FaultOutcome{out})
	for _, want := range []string{"Resilience", "leaked", "settled"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
}

func TestResilienceLosslessRunMatchesRebalanceBehaviour(t *testing.T) {
	out, err := RunFaults(smallResilience(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if out.Leaked != 0 || out.AnycastRetries != 0 || out.OrphanAccepts != 0 {
		t.Fatalf("faultless run shows fault recoveries: %+v", out)
	}
	if !out.Converged {
		t.Fatal("faultless run never settled")
	}
}
