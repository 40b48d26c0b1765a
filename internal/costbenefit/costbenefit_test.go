package costbenefit

import (
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/migration"
)

// Ratio returns benefit over cost (infinite cost returns zero; zero cost
// with positive benefit returns a large ratio).
func (a Analysis) Ratio() float64 {
	if a.CostMbpsSec <= 0 {
		if a.BenefitMbpsSec > 0 {
			return 1e9
		}
		return 0
	}
	return a.BenefitMbpsSec / a.CostMbpsSec
}

func vm(memMB, demand, limit float64) *cluster.VM {
	return &cluster.VM{
		ID:          1,
		Reservation: cluster.Resources{MemMB: memMB, BandwidthMbps: 10},
		Limit:       cluster.Resources{MemMB: memMB, BandwidthMbps: limit},
		Demand:      cluster.Resources{BandwidthMbps: demand},
	}
}

func TestStarvedVMApproved(t *testing.T) {
	a := New(Config{})
	// 128 MB VM demanding 200 Mbps but receiving 50: 150 Mbps recovered
	// over 25 minutes dwarfs a ~1.7 s transfer.
	res := a.Analyze(Proposal{VM: vm(128, 200, 400), DeliveredMbps: 50})
	if !res.Approved {
		t.Fatalf("starved VM not approved: %+v", res)
	}
	if res.BenefitMbpsSec <= res.CostMbpsSec {
		t.Fatalf("benefit %f <= cost %f", res.BenefitMbpsSec, res.CostMbpsSec)
	}
	if res.Ratio() < 10 {
		t.Errorf("ratio %.1f suspiciously low for a clearly good move", res.Ratio())
	}
}

func TestSatisfiedVMRejected(t *testing.T) {
	a := New(Config{})
	// The VM already receives its full demand: nothing to gain.
	res := a.Analyze(Proposal{VM: vm(128, 200, 400), DeliveredMbps: 200})
	if res.Approved {
		t.Fatalf("fully served VM approved: %+v", res)
	}
	if res.BenefitMbpsSec != 0 {
		t.Fatalf("benefit = %f, want 0", res.BenefitMbpsSec)
	}
}

func TestOverDeliveredClampsBenefit(t *testing.T) {
	a := New(Config{})
	res := a.Analyze(Proposal{VM: vm(128, 100, 400), DeliveredMbps: 500})
	if res.BenefitMbpsSec != 0 {
		t.Fatalf("negative unserved demand produced benefit %f", res.BenefitMbpsSec)
	}
}

func TestHugeMemoryTipsTheScale(t *testing.T) {
	a := New(Config{Horizon: 30 * time.Second})
	// Tiny recovery window, enormous memory: cost dominates.
	res := a.Analyze(Proposal{VM: vm(64_000, 200, 400), DeliveredMbps: 150})
	if res.Approved {
		t.Fatalf("64 GB VM over a 30s horizon approved: %+v", res)
	}
}

func TestMarginRaisesTheBar(t *testing.T) {
	// A move with benefit/cost ≈ 1.4 flips with the margin: a 4 GB live
	// migration costs ≈85 000 Mbps·s, recovering 80 Mbps over 25 min earns
	// ≈120 000.
	borderline := Proposal{VM: vm(4096, 200, 400), DeliveredMbps: 120}
	lax := New(Config{Margin: 1, Horizon: 25 * time.Minute})
	strict := New(Config{Margin: 50, Horizon: 25 * time.Minute})
	if !lax.Analyze(borderline).Approved {
		t.Fatal("lax margin rejected borderline move")
	}
	if strict.Analyze(borderline).Approved {
		t.Fatal("strict margin approved borderline move")
	}
}

func TestRatioEdgeCases(t *testing.T) {
	if (Analysis{CostMbpsSec: 0, BenefitMbpsSec: 0}).Ratio() != 0 {
		t.Fatal("zero/zero ratio")
	}
	if (Analysis{CostMbpsSec: 0, BenefitMbpsSec: 5}).Ratio() < 1e8 {
		t.Fatal("free benefit ratio")
	}
	if r := (Analysis{CostMbpsSec: 2, BenefitMbpsSec: 1}).Ratio(); r != 0.5 {
		t.Fatalf("ratio = %f", r)
	}
}

func TestTransferTimeMatchesMigrationModel(t *testing.T) {
	a := New(Config{})
	res := a.Analyze(Proposal{VM: vm(256, 10, 10), DeliveredMbps: 10})
	if res.TransferTime != migration.Duration(256) {
		t.Fatalf("transfer time %v mismatches migration model", res.TransferTime)
	}
}
