package topology

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// Pods returns the number of aggregation pods.
func (t *Topology) Pods() int { return (t.spec.Racks + int(t.rpp) - 1) / int(t.rpp) }

// PodOf returns the pod index of a rack.
func (t *Topology) PodOf(rack int) int {
	if rack < 0 || rack >= t.spec.Racks {
		panic(fmt.Sprintf("topology: rack %d out of range [0,%d)", rack, t.spec.Racks))
	}
	return rack / int(t.rpp)
}

func small(t *testing.T) *Topology {
	t.Helper()
	tp, err := New(Spec{
		Racks:            6,
		ServersPerRack:   4,
		RacksPerPod:      2,
		NICMbps:          1000,
		Oversubscription: 8,
		LANHop:           10 * time.Millisecond,
		LocalDelivery:    50 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tp
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"default", DefaultSpec(), true},
		{"zero racks", Spec{ServersPerRack: 1, NICMbps: 1}, false},
		{"zero servers", Spec{Racks: 1, NICMbps: 1}, false},
		{"zero nic", Spec{Racks: 1, ServersPerRack: 1}, false},
		{"negative pod", Spec{Racks: 1, ServersPerRack: 1, NICMbps: 1, RacksPerPod: -1}, false},
		{"minimal", Spec{Racks: 1, ServersPerRack: 1, NICMbps: 1}, true},
		{"address bound", Spec{Racks: 1 << 16, ServersPerRack: 1 << 15, NICMbps: 1}, false},
		{"just under the bound", Spec{Racks: 1<<16 - 1, ServersPerRack: 1 << 15, NICMbps: 1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.spec)
			if (err == nil) != tc.ok {
				t.Errorf("New(%+v) err = %v, want ok=%v", tc.spec, err, tc.ok)
			}
		})
	}
}

func TestEnumeration(t *testing.T) {
	tp := small(t)
	if tp.Servers() != 24 {
		t.Fatalf("Servers = %d, want 24", tp.Servers())
	}
	if tp.Pods() != 3 {
		t.Fatalf("Pods = %d, want 3", tp.Pods())
	}
	// Server 0..3 rack 0; 4..7 rack 1; etc.
	for i := 0; i < tp.Servers(); i++ {
		if got, want := tp.RackOf(i), i/4; got != want {
			t.Fatalf("RackOf(%d) = %d, want %d", i, got, want)
		}
		if got, want := tp.SlotOf(i), i%4; got != want {
			t.Fatalf("SlotOf(%d) = %d, want %d", i, got, want)
		}
	}
	if tp.PodOf(0) != 0 || tp.PodOf(1) != 0 || tp.PodOf(2) != 1 || tp.PodOf(5) != 2 {
		t.Fatal("PodOf grouping wrong")
	}
}

func TestTiers(t *testing.T) {
	tp := small(t)
	tests := []struct {
		a, b int
		want Tier
	}{
		{0, 0, TierLocal},
		{0, 3, TierRack},
		{0, 4, TierPod},  // racks 0 and 1, same pod
		{0, 8, TierCore}, // racks 0 and 2, different pods
		{8, 11, TierRack},
		{8, 15, TierPod},
		{23, 0, TierCore},
	}
	for _, tc := range tests {
		if got := tp.TierBetween(tc.a, tc.b); got != tc.want {
			t.Errorf("TierBetween(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{
		TierLocal: "local", TierRack: "rack", TierPod: "pod", TierCore: "core", Tier(99): "Tier(99)",
	} {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tier), got, want)
		}
	}
}

func TestLatencyMonotoneInTier(t *testing.T) {
	tp := small(t)
	l0 := tp.Latency(0, 0)
	l1 := tp.Latency(0, 1)
	l2 := tp.Latency(0, 4)
	l3 := tp.Latency(0, 8)
	if !(l0 < l1 && l1 < l2 && l2 < l3) {
		t.Fatalf("latency not monotone: %v %v %v %v", l0, l1, l2, l3)
	}
	if l1 != 10*time.Millisecond || l3 != 30*time.Millisecond {
		t.Fatalf("latency model: rack=%v core=%v", l1, l3)
	}
}

func TestLatencySymmetric(t *testing.T) {
	tp := small(t)
	f := func(a, b uint8) bool {
		x, y := int(a)%tp.Servers(), int(b)%tp.Servers()
		return tp.Latency(x, y) == tp.Latency(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestToRUplink(t *testing.T) {
	tp := small(t)
	// 4 servers × 1000 Mbps / 8 = 500 Mbps.
	if got := tp.ToRUplinkMbps(); got != 500 {
		t.Fatalf("ToRUplinkMbps = %g, want 500", got)
	}
}

func TestLoadClassification(t *testing.T) {
	tp := small(t)
	flows := []Flow{
		{Src: 0, Dst: 0, Mbps: 10},  // local
		{Src: 0, Dst: 1, Mbps: 20},  // rack
		{Src: 0, Dst: 5, Mbps: 40},  // pod
		{Src: 0, Dst: 20, Mbps: 80}, // core
	}
	rep := tp.Load(flows)
	if rep.IntraServerMbps != 10 || rep.IntraRackMbps != 20 ||
		rep.IntraPodMbps != 40 || rep.BisectionMbps != 80 {
		t.Fatalf("classification wrong: %+v", rep)
	}
	if rep.CrossRackMbps() != 120 {
		t.Fatalf("CrossRackMbps = %g, want 120", rep.CrossRackMbps())
	}
	if rep.TotalMbps() != 150 {
		t.Fatalf("TotalMbps = %g, want 150", rep.TotalMbps())
	}
	// Rack 0 uplink carries the pod flow (40) and core flow (80).
	if rep.RackUplinkMbps[0] != 120 {
		t.Fatalf("rack 0 uplink = %g, want 120", rep.RackUplinkMbps[0])
	}
	if rep.RackUplinkMbps[1] != 40 || rep.RackUplinkMbps[5] != 80 {
		t.Fatalf("uplinks: %v", rep.RackUplinkMbps)
	}
	if want := 120.0 / 500.0; rep.MaxUplinkUtilization != want {
		t.Fatalf("MaxUplinkUtilization = %g, want %g", rep.MaxUplinkUtilization, want)
	}
}

func TestLoadConservation(t *testing.T) {
	tp := small(t)
	f := func(pairs []struct{ A, B uint8 }) bool {
		var flows []Flow
		var total float64
		for _, p := range pairs {
			fl := Flow{Src: int(p.A) % tp.Servers(), Dst: int(p.B) % tp.Servers(), Mbps: 1}
			flows = append(flows, fl)
			total++
		}
		rep := tp.Load(flows)
		return rep.TotalMbps() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSinglePodWhenRacksPerPodZero(t *testing.T) {
	tp, err := New(Spec{Racks: 5, ServersPerRack: 2, NICMbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Pods() != 1 {
		t.Fatalf("Pods = %d, want 1", tp.Pods())
	}
	// With one pod there is no core traffic.
	if tier := tp.TierBetween(0, tp.Servers()-1); tier != TierPod {
		t.Fatalf("TierBetween ends = %v, want pod", tier)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	tp := small(t)
	for _, fn := range []func(){
		func() { tp.RackOf(-1) },
		func() { tp.RackOf(tp.Servers()) },
		func() { tp.PodOf(99) },
		func() { tp.TierBetween(0, tp.Servers()) },
		func() { tp.TierBetween(-1, 0) },
		func() { tp.Latency(tp.Servers(), tp.Servers()) },
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

func TestDefaultSpecSize(t *testing.T) {
	tp, err := New(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if tp.Servers() != 3010 {
		t.Fatalf("default servers = %d, want 3010 (≈ paper's 3000)", tp.Servers())
	}
}

// tierByDefinition is TierBetween as the package doc defines it, one
// RackOf/PodOf call per question asked.
func tierByDefinition(tp *Topology, a, b int) Tier {
	switch {
	case a == b:
		return TierLocal
	case tp.RackOf(a) == tp.RackOf(b):
		return TierRack
	case tp.PodOf(tp.RackOf(a)) == tp.PodOf(tp.RackOf(b)):
		return TierPod
	default:
		return TierCore
	}
}

func TestTierBetweenMatchesDefinitionExhaustively(t *testing.T) {
	for _, spec := range []Spec{
		{Racks: 6, ServersPerRack: 4, RacksPerPod: 2, NICMbps: 1000},  // powers of two, even pods
		{Racks: 11, ServersPerRack: 7, RacksPerPod: 4, NICMbps: 1000}, // odd rack size, ragged last pod (3 racks)
		{Racks: 5, ServersPerRack: 43, RacksPerPod: 0, NICMbps: 1000}, // one pod: no core tier
		{Racks: 9, ServersPerRack: 1, RacksPerPod: 10, NICMbps: 1000}, // pod wider than the datacenter
	} {
		tp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[Tier]int{}
		for a := 0; a < tp.Servers(); a++ {
			for b := 0; b < tp.Servers(); b++ {
				got, want := tp.TierBetween(a, b), tierByDefinition(tp, a, b)
				if got != want {
					t.Fatalf("%+v: TierBetween(%d, %d) = %v, want %v", spec, a, b, got, want)
				}
				seen[got]++
			}
		}
		if seen[TierLocal] != tp.Servers() {
			t.Fatalf("%+v: %d local pairs, want %d", spec, seen[TierLocal], tp.Servers())
		}
		if tp.Pods() > 1 && seen[TierCore] == 0 {
			t.Fatalf("%+v: no pair crossed the core", spec)
		}
	}
}

var latencySink time.Duration

// BenchmarkLatency prices one Latency call per tier: simnet pays it on every
// send, the spill walk on every candidate.
func BenchmarkLatency(b *testing.B) {
	spec := DefaultSpec()
	spec.Racks, spec.ServersPerRack, spec.RacksPerPod = 256, 32, 16 // the 8192-server workloads
	tp, err := New(spec)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		peer func(a int) int
	}{
		{"rack", func(a int) int { return a ^ 16 }},
		{"pod", func(a int) int { return a + 32 }},
		{"core", func(a int) int { return a + 4096 }},
		{"mixed", func(a int) int { return a * 2654435761 & 8191 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sum time.Duration
			for i := 0; i < b.N; i++ {
				a := i & 31
				sum += tp.Latency(a, bc.peer(a))
			}
			latencySink = sum
		})
	}
}
