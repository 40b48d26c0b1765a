package rebalance

import (
	"testing"
	"time"

	"vbundle/internal/aggregation"
	"vbundle/internal/cluster"
	"vbundle/internal/costbenefit"
	"vbundle/internal/migration"
	"vbundle/internal/pastry"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

// buildMulti assembles a world with a multi-kind rebalancer.
func buildMulti(t *testing.T, racks, perRack int, cfg Config) *world {
	t.Helper()
	tp, err := topology.New(topology.Spec{
		Racks:            racks,
		ServersPerRack:   perRack,
		RacksPerPod:      4,
		NICMbps:          1000,
		Oversubscription: 8,
		LANHop:           time.Millisecond,
		LocalDelivery:    10 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(13)
	ring := pastry.NewRing(engine, tp, pastry.Config{}, pastry.HierarchyAssigner)
	ring.BuildStatic()
	cl := cluster.New(tp, cluster.Resources{CPU: 16, MemMB: 16384})
	mig := migration.New(engine, cl)
	managers := make([]*aggregation.Manager, ring.Size())
	for i, n := range ring.Nodes() {
		managers[i] = aggregation.New(scribe.New(n), aggregation.Config{UpdateInterval: cfg.UpdateInterval})
	}
	coord := NewCoordinator(ring, cl, mig, managers, cfg)
	return &world{engine: engine, ring: ring, cl: cl, mig: mig, coord: coord}
}

func multiCfg(threshold float64) Config {
	return Config{
		Threshold:         threshold,
		UpdateInterval:    time.Minute,
		RebalanceInterval: 5 * time.Minute,
		Kinds:             []cluster.Kind{cluster.KindBandwidth, cluster.KindCPU, cluster.KindMemory},
	}
}

// placeVM places a VM with a full demand vector.
func placeVM(t *testing.T, w *world, server int, demand cluster.Resources) *cluster.VM {
	t.Helper()
	vm, err := w.cl.CreateVM("tenant",
		cluster.Resources{CPU: 0.25, MemMB: 64, BandwidthMbps: 10},
		cluster.Resources{CPU: 8, MemMB: 4096, BandwidthMbps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cl.Place(vm, server); err != nil {
		t.Fatal(err)
	}
	vm.Demand = demand
	return vm
}

func TestCPUHotServerShedsEvenWithIdleNetwork(t *testing.T) {
	w := buildMulti(t, 2, 4, multiCfg(0.05))
	// Server 0: CPU-saturated (14 of 16 cores) but almost no bandwidth.
	// Servers 1–3: mid CPU; servers 4–7: cool on every kind (receivers).
	for s := 0; s < w.cl.Size(); s++ {
		switch {
		case s == 0:
			for v := 0; v < 7; v++ {
				placeVM(t, w, s, cluster.Resources{CPU: 2, MemMB: 256, BandwidthMbps: 5})
			}
		case s <= 3:
			for v := 0; v < 4; v++ {
				placeVM(t, w, s, cluster.Resources{CPU: 2, MemMB: 512, BandwidthMbps: 50})
			}
		default:
			for v := 0; v < 4; v++ {
				placeVM(t, w, s, cluster.Resources{CPU: 0.5, MemMB: 64, BandwidthMbps: 5})
			}
		}
	}
	w.coord.Start()
	w.engine.RunFor(3 * time.Minute)
	if got := w.coord.Agent(0).Role(); got != RoleShedder {
		t.Fatalf("CPU-hot server role = %v, want shedder", got)
	}
	if m, ok := w.coord.Agent(0).MeanFor(cluster.KindCPU); !ok || m <= 0 {
		t.Fatalf("CPU mean missing: %v %v", m, ok)
	}
	if got := w.coord.Agent(5).Role(); got != RoleReceiver {
		t.Fatalf("cool server role = %v, want receiver", got)
	}
	w.engine.RunFor(30 * time.Minute)
	w.coord.Stop()
	w.engine.Run()
	if w.coord.MigrationsTriggered() == 0 {
		t.Fatal("CPU pressure triggered no migrations")
	}
	if got := w.cl.Server(0).UtilizationOf(cluster.KindCPU); got > 0.7 {
		t.Errorf("server 0 CPU still at %.2f", got)
	}
}

func TestReceiverChecksEveryKind(t *testing.T) {
	w := buildMulti(t, 2, 4, multiCfg(0.1))
	// Server 0 is bandwidth-hot with memory-heavy VMs (6 GB each). The
	// other servers have idle NICs and cool-but-not-empty memory, so they
	// volunteer as receivers — but accepting a 6 GB victim would blow
	// their memory past mean + threshold, so the multi-kind acceptance
	// check must refuse every exchange.
	for v := 0; v < 5; v++ {
		placeVM(t, w, 0, cluster.Resources{CPU: 0.1, MemMB: 6000, BandwidthMbps: 190})
	}
	for s := 1; s < w.cl.Size(); s++ {
		placeVM(t, w, s, cluster.Resources{CPU: 0.1, MemMB: 5000, BandwidthMbps: 30})
	}
	w.coord.Start()
	w.engine.RunFor(40 * time.Minute)
	w.coord.Stop()
	w.engine.Run()
	if got := w.coord.MigrationsTriggered(); got != 0 {
		t.Fatalf("memory-guard breached: %d migrations", got)
	}
	if w.coord.QueriesSent() == 0 {
		t.Fatal("the bandwidth-hot server never even queried")
	}
	// Receivers' memory untouched.
	for s := 1; s < w.cl.Size(); s++ {
		memMean, _ := w.coord.Agent(s).MeanFor(cluster.KindMemory)
		if u := w.cl.Server(s).UtilizationOf(cluster.KindMemory); u > memMean+0.1 {
			t.Errorf("server %d memory at %.3f above the band (mean %.3f)", s, u, memMean)
		}
	}
}

func TestZeroDemandKindDoesNotBlockReceivers(t *testing.T) {
	// Multi-kind tracking with a kind nobody demands (CPU demand zero
	// everywhere): receivers must still exist for the bandwidth axis.
	w := buildMulti(t, 2, 4, multiCfg(0.1))
	for s := 0; s < w.cl.Size(); s++ {
		per := 10.0
		if s == 0 {
			per = 120
		}
		for v := 0; v < 8; v++ {
			placeVM(t, w, s, cluster.Resources{BandwidthMbps: per}) // CPU/mem demand zero
		}
	}
	w.coord.Start()
	w.engine.RunFor(30 * time.Minute)
	w.coord.Stop()
	w.engine.Run()
	if w.coord.MigrationsTriggered() == 0 {
		t.Fatal("zero-demand CPU kind blocked all receivers")
	}
}

func TestBandwidthOnlyDefaultUnchanged(t *testing.T) {
	cfg := Config{}.withDefaults()
	if len(cfg.Kinds) != 1 || cfg.Kinds[0] != cluster.KindBandwidth {
		t.Fatalf("default kinds = %v", cfg.Kinds)
	}
}

func TestCostBenefitVetoesMarginalMoves(t *testing.T) {
	// Enormous-memory VMs over a tiny horizon: every proposed migration
	// should be vetoed, leaving the hot server hot but the veto counter
	// non-zero.
	cfg := fastCfg(0.1)
	cfg.CostBenefit = &costbenefit.Config{Horizon: time.Second, Margin: 1}
	w := build(t, 2, 4, cfg)
	for s := 0; s < w.cl.Size(); s++ {
		per := 10.0
		if s == 0 {
			per = 95
		}
		for v := 0; v < 10; v++ {
			vm, err := w.cl.CreateVM("tenant",
				cluster.Resources{CPU: 1, MemMB: 8000, BandwidthMbps: 10},
				cluster.Resources{CPU: 4, MemMB: 8000, BandwidthMbps: 1000})
			if err != nil {
				t.Fatal(err)
			}
			// Bypass reservation pressure by placing directly.
			if err := w.cl.Place(vm, s); err != nil {
				t.Fatal(err)
			}
			vm.Demand.BandwidthMbps = per
		}
	}
	w.coord.Start()
	w.engine.RunFor(30 * time.Minute)
	w.coord.Stop()
	w.engine.Run()
	if got := w.coord.MigrationsTriggered(); got != 0 {
		t.Fatalf("cost-vetoed scenario still migrated %d times", got)
	}
	if w.coord.VetoedByCost() == 0 {
		t.Fatal("no vetoes recorded")
	}
}

func TestCostBenefitApprovesClearWins(t *testing.T) {
	// Small VMs on a genuinely saturated NIC (total demand above line
	// rate, so the victim is actually starved), long horizon: the
	// analysis should approve and behave like the plain rebalancer.
	cfg := fastCfg(0.1)
	cfg.CostBenefit = &costbenefit.Config{Horizon: 25 * time.Minute, Margin: 1.2}
	w := build(t, 2, 4, cfg)
	for s := 0; s < w.cl.Size(); s++ {
		per := 10.0
		if s == 0 {
			per = 110 // 10 VMs × 110 = 1100 Mbps on a 1000 Mbps NIC
		}
		for v := 0; v < 10; v++ {
			loadVM(t, w, s, per)
		}
	}
	w.coord.Start()
	w.engine.RunFor(30 * time.Minute)
	w.coord.Stop()
	w.engine.Run()
	if w.coord.MigrationsTriggered() == 0 {
		t.Fatal("clear wins were not migrated")
	}
	// Once enough VMs moved that the NIC is no longer saturated, the
	// remaining shed attempts are rightly vetoed (no starvation left) —
	// the module turns the rebalancer off exactly when the benefit ends.
	if got := w.cl.Server(0).DemandBW(); got > w.cl.Server(0).Capacity.BandwidthMbps {
		t.Errorf("server 0 still saturated at %.0f Mbps", got)
	}
}
