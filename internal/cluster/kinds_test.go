package cluster

import "testing"

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindBandwidth: "bandwidth", KindCPU: "cpu", KindMemory: "memory", Kind(9): "Kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d) = %q, want %q", int(k), got, want)
		}
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	r := Resources{CPU: 2, MemMB: 512, BandwidthMbps: 100}
	for _, k := range AllKinds {
		if got := r.Set(k, 7).Get(k); got != 7 {
			t.Errorf("%v round trip = %g", k, got)
		}
	}
	// Set does not disturb other kinds.
	mod := r.Set(KindCPU, 9)
	if mod.MemMB != 512 || mod.BandwidthMbps != 100 {
		t.Fatalf("Set disturbed others: %+v", mod)
	}
	// Original untouched (value semantics).
	if r.CPU != 2 {
		t.Fatal("Set mutated receiver")
	}
}

func TestGetPanicsOnUnknownKind(t *testing.T) {
	for _, fn := range []func(){
		func() { Resources{}.Get(Kind(0)) },
		func() { Resources{}.Set(Kind(42), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPerKindServerAccounting(t *testing.T) {
	s := NewServer(0, Resources{CPU: 8, MemMB: 1024, BandwidthMbps: 1000})
	vm := &VM{
		ID:          1,
		Reservation: Resources{CPU: 1, MemMB: 128, BandwidthMbps: 100},
		Limit:       Resources{CPU: 2, MemMB: 256, BandwidthMbps: 400},
		Demand:      Resources{CPU: 3, MemMB: 512, BandwidthMbps: 200},
	}
	if err := s.Admit(vm); err != nil {
		t.Fatal(err)
	}
	// Demand above limit caps per kind.
	if got := vm.EffectiveDemand(KindCPU); got != 2 {
		t.Errorf("cpu effective = %g", got)
	}
	if got := vm.EffectiveDemand(KindMemory); got != 256 {
		t.Errorf("mem effective = %g", got)
	}
	if got := vm.EffectiveDemand(KindBandwidth); got != 200 {
		t.Errorf("bw effective = %g", got)
	}
	if got := s.DemandOf(KindCPU); got != 2 {
		t.Errorf("server cpu demand = %g", got)
	}
	if got := s.UtilizationOf(KindCPU); got != 0.25 {
		t.Errorf("cpu util = %g", got)
	}
	if got := s.ReservedOf(KindMemory); got != 128 {
		t.Errorf("mem reserved = %g", got)
	}
	// Consistency with the bandwidth-specialized methods.
	if s.DemandOf(KindBandwidth) != s.DemandBW() {
		t.Error("DemandOf(bandwidth) != DemandBW")
	}
	if s.UtilizationOf(KindBandwidth) != s.UtilizationBW() {
		t.Error("UtilizationOf(bandwidth) != UtilizationBW")
	}
}

func TestUtilizationOfZeroCapacity(t *testing.T) {
	s := NewServer(0, Resources{})
	if s.UtilizationOf(KindCPU) != 0 {
		t.Fatal("zero capacity should be zero utilization")
	}
}

// UtilizationOf is effective demand over capacity for a kind.
func (s *Server) UtilizationOf(k Kind) float64 {
	cap := s.Capacity.Get(k)
	if cap == 0 {
		return 0
	}
	return s.DemandOf(k) / cap
}
