package rebalance

import (
	"testing"
	"time"

	"vbundle/internal/aggregation"
	"vbundle/internal/cluster"
	"vbundle/internal/metrics"
	"vbundle/internal/migration"
	"vbundle/internal/pastry"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/topology"
)

// Roles counts agents per current role.
func (c *Coordinator) Roles() (shedders, receivers, neutral int) {
	for _, a := range c.agents {
		switch a.role {
		case RoleShedder:
			shedders++
		case RoleReceiver:
			receivers++
		default:
			neutral++
		}
	}
	return shedders, receivers, neutral
}

// MeanUtilization returns the last cluster-mean bandwidth utilization the
// agent computed (the paper's "average utilization line").
func (a *Agent) MeanUtilization() (float64, bool) {
	return a.MeanFor(cluster.KindBandwidth)
}

// MeanFor returns the cluster mean for one tracked resource kind.
func (a *Agent) MeanFor(k cluster.Kind) (float64, bool) {
	return a.means[k], a.haveMean
}

type world struct {
	engine *sim.Engine
	ring   *pastry.Ring
	cl     *cluster.Cluster
	mig    *migration.Manager
	coord  *Coordinator
}

func build(t *testing.T, racks, perRack int, cfg Config, netOpts ...simnet.Option) *world {
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
	engine := sim.NewEngine(9)
	ring := pastry.NewRing(engine, tp, pastry.Config{}, pastry.HierarchyAssigner, netOpts...)
	ring.BuildStatic()
	cl := cluster.New(tp, cluster.Resources{CPU: 64, MemMB: 1 << 20})
	mig := migration.New(engine, cl)
	mig.SetLiveness(func(s int) bool { return ring.Network().Alive(simnet.Addr(s)) })
	managers := make([]*aggregation.Manager, ring.Size())
	for i, n := range ring.Nodes() {
		managers[i] = aggregation.New(scribe.New(n), aggregation.Config{UpdateInterval: cfg.UpdateInterval})
	}
	coord := NewCoordinator(ring, cl, mig, managers, cfg)
	return &world{engine: engine, ring: ring, cl: cl, mig: mig, coord: coord}
}

// fastCfg shrinks the paper's intervals so tests stay snappy.
func fastCfg(threshold float64) Config {
	return Config{
		Threshold:         threshold,
		UpdateInterval:    time.Minute,
		RebalanceInterval: 5 * time.Minute,
	}
}

// loadVM creates and places a VM with the given fixed demand.
func loadVM(t *testing.T, w *world, server int, demandMbps float64) *cluster.VM {
	t.Helper()
	vm, err := w.cl.CreateVM("tenant",
		cluster.Resources{CPU: 1, MemMB: 128, BandwidthMbps: 10},
		cluster.Resources{CPU: 4, MemMB: 128, BandwidthMbps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cl.Place(vm, server); err != nil {
		t.Fatal(err)
	}
	vm.Demand.BandwidthMbps = demandMbps
	return vm
}

func TestRolesFollowMeanAndThreshold(t *testing.T) {
	w := build(t, 2, 4, fastCfg(0.2))
	// Server demands: one hot (90%), one cold (5%), the rest mid (50%).
	for s := 0; s < w.cl.Size(); s++ {
		switch s {
		case 0:
			loadVM(t, w, s, 900)
		case 1:
			loadVM(t, w, s, 50)
		default:
			loadVM(t, w, s, 500)
		}
	}
	w.coord.Start()
	w.engine.RunFor(3 * time.Minute) // a few update intervals, before rebalance kicks in
	// mean = (900+50+6*500)/8000 = 0.49375; threshold 0.2.
	if got := w.coord.Agent(0).Role(); got != RoleShedder {
		t.Errorf("server 0 role = %v, want shedder", got)
	}
	if got := w.coord.Agent(1).Role(); got != RoleReceiver {
		t.Errorf("server 1 role = %v, want receiver", got)
	}
	if got := w.coord.Agent(3).Role(); got != RoleNeutral {
		t.Errorf("server 3 role = %v, want neutral", got)
	}
	mean, ok := w.coord.Agent(2).MeanUtilization()
	if !ok || mean < 0.49 || mean > 0.50 {
		t.Errorf("mean = %g (ok=%v), want ≈0.494", mean, ok)
	}
	sh, rc, _ := w.coord.Roles()
	if sh != 1 || rc != 1 {
		t.Errorf("roles: %d shedders, %d receivers", sh, rc)
	}
	w.coord.Stop()
	w.engine.Run()
}

func TestRebalancingRelievesHotServers(t *testing.T) {
	w := build(t, 4, 4, fastCfg(0.1))
	// Hot servers: 4 of 16 at 95%; cold: 4 at 5%; rest at 50%.
	for s := 0; s < w.cl.Size(); s++ {
		var per float64
		switch {
		case s < 4:
			per = 95
		case s < 8:
			per = 5
		default:
			per = 50
		}
		// 10 VMs per server so there is granularity to move.
		for v := 0; v < 10; v++ {
			loadVM(t, w, s, per)
		}
	}
	before := metrics.StdOf(w.cl.UtilizationSnapshot())
	mean := w.cl.MeanUtilizationBW()
	w.coord.Start()
	w.engine.RunFor(40 * time.Minute) // several rebalance rounds
	w.coord.Stop()
	w.engine.Run()

	after := metrics.StdOf(w.cl.UtilizationSnapshot())
	if after >= before {
		t.Errorf("SD did not drop: before %.4f after %.4f", before, after)
	}
	// All servers within [0, mean+threshold] — the paper's goal state.
	limit := mean + 0.1 + 0.02 // small slack for granularity
	for s, u := range w.cl.UtilizationSnapshot() {
		if u > limit {
			t.Errorf("server %d still at %.3f > %.3f", s, u, limit)
		}
	}
	if w.coord.MigrationsTriggered() == 0 {
		t.Error("no migrations triggered")
	}
	if st := w.mig.Stats(); st.Completed == 0 {
		t.Errorf("no migrations completed: %+v", st)
	}
}

func TestReceiverNeverOvercommitsReservations(t *testing.T) {
	w := build(t, 2, 4, fastCfg(0.05))
	for s := 0; s < w.cl.Size(); s++ {
		per := 10.0
		if s == 0 {
			per = 95
		}
		for v := 0; v < 10; v++ {
			loadVM(t, w, s, per)
		}
	}
	w.coord.Start()
	w.engine.RunFor(30 * time.Minute)
	w.coord.Stop()
	w.engine.Run()
	for s := 0; s < w.cl.Size(); s++ {
		srv := w.cl.Server(s)
		if srv.ReservedBW() > srv.Capacity.BandwidthMbps {
			t.Errorf("server %d reservations %.0f exceed capacity", s, srv.ReservedBW())
		}
	}
}

func TestConvergenceStops(t *testing.T) {
	w := build(t, 2, 4, fastCfg(0.1))
	for s := 0; s < w.cl.Size(); s++ {
		per := 30.0
		if s == 0 {
			per = 90
		}
		for v := 0; v < 10; v++ {
			loadVM(t, w, s, per)
		}
	}
	w.coord.Start()
	w.engine.RunFor(40 * time.Minute)
	settled := w.coord.MigrationsTriggered()
	// Another long stretch with unchanged demand must trigger nothing new
	// (no oscillation).
	w.engine.RunFor(60 * time.Minute)
	w.coord.Stop()
	w.engine.Run()
	if got := w.coord.MigrationsTriggered(); got != settled {
		t.Errorf("oscillation: migrations went from %d to %d with static load", settled, got)
	}
}

func TestBalancedClusterStaysIdle(t *testing.T) {
	w := build(t, 2, 4, fastCfg(0.183))
	for s := 0; s < w.cl.Size(); s++ {
		for v := 0; v < 5; v++ {
			loadVM(t, w, s, 60)
		}
	}
	w.coord.Start()
	w.engine.RunFor(30 * time.Minute)
	w.coord.Stop()
	w.engine.Run()
	if got := w.coord.MigrationsTriggered(); got != 0 {
		t.Errorf("balanced cluster triggered %d migrations", got)
	}
	if q := w.coord.QueriesSent(); q != 0 {
		t.Errorf("balanced cluster sent %d queries", q)
	}
}

func TestSmallerThresholdRelievesMoreServers(t *testing.T) {
	// The Fig. 9 comparison: threshold 0.1 relieves servers above ~70%,
	// threshold 0.3 only above ~90%.
	run := func(threshold float64) int {
		w := build(t, 4, 4, fastCfg(threshold))
		for s := 0; s < w.cl.Size(); s++ {
			per := 20.0
			if s%2 == 0 {
				per = 80 // every other server hot: mean ≈ 0.5
			}
			for v := 0; v < 10; v++ {
				loadVM(t, w, s, per)
			}
		}
		w.coord.Start()
		w.engine.RunFor(40 * time.Minute)
		w.coord.Stop()
		w.engine.Run()
		return w.coord.MigrationsTriggered()
	}
	low, high := run(0.1), run(0.3)
	if low <= high {
		t.Errorf("threshold 0.1 triggered %d migrations, threshold 0.3 %d; want more at 0.1", low, high)
	}
}

func TestLowMeanClusterStillRebalances(t *testing.T) {
	// When the cluster mean is below the threshold, the paper's literal
	// receiver rule (util < mean − threshold) admits nobody; the clamped
	// cut must still let empty servers volunteer.
	w := build(t, 2, 4, fastCfg(0.3))
	// One very hot server in an otherwise idle cluster.
	for v := 0; v < 10; v++ {
		loadVM(t, w, 0, 90)
	}
	w.coord.Start()
	w.engine.RunFor(40 * time.Minute)
	w.coord.Stop()
	w.engine.Run()
	if w.coord.MigrationsTriggered() == 0 {
		t.Fatal("hot server in idle cluster never shed")
	}
	snap := w.cl.UtilizationSnapshot()
	if snap[0] > 0.5 {
		t.Errorf("server 0 still at %.2f", snap[0])
	}
}

func TestRoleString(t *testing.T) {
	for r, want := range map[Role]string{
		RoleNeutral: "neutral", RoleShedder: "shedder", RoleReceiver: "receiver", Role(0): "unknown",
	} {
		if got := r.String(); got != want {
			t.Errorf("Role(%d) = %q", int(r), got)
		}
	}
}

func TestStartStopIdempotent(t *testing.T) {
	w := build(t, 1, 2, fastCfg(0.1))
	w.coord.Start()
	w.coord.Start()
	w.coord.Stop()
	w.coord.Stop()
	w.engine.Run()
}
