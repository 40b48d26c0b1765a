package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

func TestFlat(t *testing.T) {
	g := Flat(100)
	if g.DemandAt(0) != 100 || g.DemandAt(time.Hour) != 100 {
		t.Fatal("flat not flat")
	}
}

func TestSine(t *testing.T) {
	g := Sine(100, 50, time.Minute, 0)
	if v := g.DemandAt(0); math.Abs(v-100) > 1e-9 {
		t.Fatalf("sine at 0 = %g", v)
	}
	if v := g.DemandAt(15 * time.Second); math.Abs(v-150) > 1e-9 {
		t.Fatalf("sine at quarter = %g", v)
	}
	if v := g.DemandAt(45 * time.Second); math.Abs(v-50) > 1e-9 {
		t.Fatalf("sine at three-quarter = %g", v)
	}
	// Never negative even when amplitude exceeds base.
	deep := Sine(10, 100, time.Minute, 0)
	for s := 0; s < 60; s++ {
		if deep.DemandAt(time.Duration(s)*time.Second) < 0 {
			t.Fatal("sine went negative")
		}
	}
}

func TestBursty(t *testing.T) {
	g := Bursty(10, 90, time.Minute, 0.25, 0)
	if g.DemandAt(0) != 90 {
		t.Fatal("burst start should be high")
	}
	if g.DemandAt(30*time.Second) != 10 {
		t.Fatal("burst off phase should be low")
	}
	if g.DemandAt(time.Minute) != 90 {
		t.Fatal("burst periodic")
	}
	shifted := Bursty(10, 90, time.Minute, 0.25, 0.5)
	if shifted.DemandAt(0) != 10 {
		t.Fatal("phase shift ignored")
	}
}

func TestSIPpRamp(t *testing.T) {
	s := NewSIPp(1)
	if got := s.OfferedRate(0); got != 800 {
		t.Fatalf("initial rate %g", got)
	}
	if got := s.OfferedRate(10 * time.Second); got != 900 {
		t.Fatalf("rate at 10s = %g", got)
	}
	if got := s.OfferedRate(time.Hour); got != 3000 {
		t.Fatalf("rate should cap at 3000, got %g", got)
	}
	// Demand is rate × per-call bandwidth.
	if got := s.DemandAt(0); math.Abs(got-800*32/1000.0) > 1e-9 {
		t.Fatalf("demand at 0 = %g", got)
	}
}

func TestSIPpStepUnstarved(t *testing.T) {
	s := NewSIPp(1)
	// Allocation covers the full demand: no failures, fast responses.
	demand := s.DemandAt(0)
	res := s.Step(0, time.Second, demand*2)
	if res.FailedCalls != 0 {
		t.Fatalf("failed = %d with surplus bandwidth", res.FailedCalls)
	}
	if res.OfferedCalls != 800 {
		t.Fatalf("offered = %d", res.OfferedCalls)
	}
	for _, rt := range res.ResponseTimesMs {
		if rt > 15 {
			t.Fatalf("unstarved RT %g ms too high", rt)
		}
	}
}

func TestSIPpStepStarved(t *testing.T) {
	s := NewSIPp(1)
	demand := s.DemandAt(0)
	res := s.Step(0, time.Second, demand/4)
	if res.FailedCalls != 600 { // 800 offered, pipe carries 200
		t.Fatalf("failed = %d, want 600", res.FailedCalls)
	}
	slow := 0
	for _, rt := range res.ResponseTimesMs {
		if rt > 10 {
			slow++
		}
	}
	if slow < len(res.ResponseTimesMs)/2 {
		t.Fatalf("starved responses suspiciously fast: %v", res.ResponseTimesMs)
	}
	offered, failed := s.Totals()
	if offered != 800 || failed != 600 {
		t.Fatalf("totals %d/%d", offered, failed)
	}
}

func TestSIPpZeroAllocation(t *testing.T) {
	s := NewSIPp(1)
	res := s.Step(0, time.Second, 0)
	if res.FailedCalls != res.OfferedCalls {
		t.Fatal("zero allocation should fail every call")
	}
}

func TestIperf(t *testing.T) {
	ip := &Iperf{TargetMbps: 300, Start: 10 * time.Second}
	if ip.DemandAt(5*time.Second) != 0 {
		t.Fatal("iperf started early")
	}
	if ip.DemandAt(10*time.Second) != 300 || ip.DemandAt(time.Hour) != 300 {
		t.Fatal("iperf rate wrong")
	}
}

func TestDriverRefreshesDemands(t *testing.T) {
	tp, err := topology.New(topology.Spec{Racks: 1, ServersPerRack: 2, NICMbps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(1)
	cl := cluster.New(tp, cluster.Resources{CPU: 8, MemMB: 1024})
	vm, _ := cl.CreateVM("a", cluster.Resources{BandwidthMbps: 10}, cluster.Resources{BandwidthMbps: 1000})
	if err := cl.Place(vm, 0); err != nil {
		t.Fatal(err)
	}
	d := NewDriver(engine, cl)
	// One Mbps a second, counting the refreshes that read it.
	ticks := 0
	d.Attach(vm.ID, GeneratorFunc(func(t time.Duration) float64 { ticks++; return t.Seconds() }))
	d.Start(10 * time.Second)
	if vm.Demand.BandwidthMbps != 0 {
		t.Fatalf("initial refresh demand = %g", vm.Demand.BandwidthMbps)
	}
	engine.RunUntil(35 * time.Second)
	d.Stop()
	engine.Run()
	if vm.Demand.BandwidthMbps != 30 {
		t.Fatalf("demand after 30s = %g, want 30", vm.Demand.BandwidthMbps)
	}
	if ticks != 4 { // t=0 (Start) + 3 periodic
		t.Fatalf("ticks = %d, want 4", ticks)
	}
	// Idempotent start, stop.
	d.Start(time.Second)
	d.Stop()
	d.Stop()
}

// TestDriverRefreshOrder: a refresh walks the bindings in ascending VM id
// whatever order they were attached in, and re-attaching a known id
// replaces its generator in place.
func TestDriverRefreshOrder(t *testing.T) {
	tp, err := topology.New(topology.Spec{Racks: 1, ServersPerRack: 2, NICMbps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(1)
	cl := cluster.New(tp, cluster.Resources{CPU: 64, MemMB: 1 << 20})
	var vms []*cluster.VM
	for i := 0; i < 40; i++ {
		vm, err := cl.CreateVM("a", cluster.Resources{BandwidthMbps: 1}, cluster.Resources{BandwidthMbps: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Place(vm, i%2); err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	d := NewDriver(engine, cl)
	var order []cluster.VMID
	record := func(id cluster.VMID, mbps float64) Generator {
		return GeneratorFunc(func(time.Duration) float64 {
			order = append(order, id)
			return mbps
		})
	}
	for _, i := range rand.New(rand.NewSource(3)).Perm(len(vms)) {
		d.Attach(vms[i].ID, record(vms[i].ID, 10))
	}
	replaced := vms[17]
	d.Attach(replaced.ID, record(replaced.ID, 77))

	d.Refresh()
	if len(order) != len(vms) {
		t.Fatalf("refresh called %d generators for %d bindings (re-Attach must replace, not add)", len(order), len(vms))
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("refresh order not ascending by VM id: %v", order)
		}
	}
	for _, vm := range vms {
		want := 10.0
		if vm == replaced {
			want = 77
		}
		if vm.Demand.BandwidthMbps != want {
			t.Fatalf("vm %d demand %g, want %g", vm.ID, vm.Demand.BandwidthMbps, want)
		}
	}
}
