// Package core assembles the full v-Bundle system: the simulated datacenter
// (topology + cluster), the Pastry overlay with hierarchy-assigned nodeIds,
// Scribe and the aggregation trees, the topology-aware placement engine,
// and the decentralized rebalancer. It is the public entry point the
// command-line tool and the experiment harnesses build on, and the one
// place a stack is constructed: NewOverlay for the overlay alone, New for
// everything.
//
// Typical use:
//
//	vb, err := core.New(core.Options{})         // paper-scale defaults
//	vm, res, err := vb.BootVM("IBM", rsv, lim)  // DHT-placed instance
//	vb.StartServices()                          // aggregation + rebalancing
//	vb.RunFor(time.Hour)                        // advance virtual time
//	fmt.Println(vb.UtilizationStdDev())
package core

import (
	"fmt"
	"time"

	"vbundle/internal/aggregation"
	"vbundle/internal/audit"
	"vbundle/internal/cluster"
	"vbundle/internal/ids"
	"vbundle/internal/metrics"
	"vbundle/internal/migration"
	"vbundle/internal/obs"
	"vbundle/internal/pastry"
	"vbundle/internal/placement"
	"vbundle/internal/rebalance"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/store"
	"vbundle/internal/tcshape"
	"vbundle/internal/topology"
	"vbundle/internal/workload"
)

// EngineKind selects the placement algorithm.
type EngineKind int

// Placement engine kinds.
const (
	// EngineDHT is v-Bundle's topology-aware placement (paper §II).
	EngineDHT EngineKind = iota + 1
	// EngineGreedy is the first-fit baseline of Fig. 8b.
	EngineGreedy
	// EngineRandom places on a random server with room.
	EngineRandom
)

// String returns the engine name.
func (k EngineKind) String() string {
	switch k {
	case EngineDHT:
		return "vbundle-dht"
	case EngineGreedy:
		return "greedy"
	case EngineRandom:
		return "random"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// Options configures a v-Bundle instance. The zero value reproduces the
// paper's simulated setup.
type Options struct {
	// Topology describes the datacenter; defaults to topology.DefaultSpec
	// (≈3000 servers in 70 racks).
	Topology topology.Spec
	// Seed makes the whole simulation reproducible.
	Seed int64
	// Pastry tunes the overlay (digit width, leaf set size).
	Pastry pastry.Config
	// Engine selects the placement algorithm; defaults to EngineDHT.
	Engine EngineKind
	// Rebalance tunes the resource-shuffling algorithm.
	Rebalance rebalance.Config
	// MessageLoss drops each overlay message independently with this
	// probability in [0, 1), for robustness studies (0 = reliable network).
	MessageLoss float64
	// Shards is the engine's shard count K: 0 (the default) and 1 both run
	// the one-shard engine; K ≥ 2 runs K shards in parallel windows, and
	// needs a positive Topology.LANHop as its lookahead. Any K produces
	// bit-identical virtual-time results.
	Shards int
	// Trace attaches a flight recorder: every subsystem records its
	// decision points (route hops, anycast walks, lease grants, migrations)
	// into it. Nil disables recording; the disabled path is a single nil
	// check per site and simulation results are identical either way.
	Trace *obs.Trace
	// Store, when set, gives every node a durable store: placement maps,
	// lease tables and peer snapshots are written through as they change,
	// and a crash (simnet.Network.Crash) is a real crash — Network.Restart
	// rebuilds a blank stack from whatever the store held and reconciles it
	// with the live ring. Nil keeps nodes purely in-memory; a Restart then
	// panics for want of a restarter.
	Store *store.MemStore
}

// peerCheckpointInterval is how often each live node's peer snapshot is
// refreshed in the store while maintenance runs (routing state drifts as
// nodes fail and rejoin).
const peerCheckpointInterval = 5 * time.Minute

func (o Options) withDefaults() Options {
	if o.Topology.Racks == 0 {
		o.Topology = topology.DefaultSpec()
	}
	if o.Engine == 0 {
		o.Engine = EngineDHT
	}
	return o
}

// RecoveryStats accumulates crash-recovery outcomes across every restart
// this instance performed.
type RecoveryStats struct {
	// Restarts counts crash-restarts served by the restarter.
	Restarts int
	// BlankBoots counts restarts that found no durable state at all.
	BlankBoots int
	// AdoptedLeases counts persisted holds re-adopted during rejoin (lease
	// unexpired, VM still in flight).
	AdoptedLeases int
	// ReleasedLeases counts persisted holds dropped during rejoin — the
	// orphan releases the crashed node could never perform.
	ReleasedLeases int
	// VerifiedPlacements counts persisted placement records the cluster
	// confirmed after restart (VM still on this server).
	VerifiedPlacements int
	// StalePlacements counts records whose VM legitimately moved on while
	// the node was down (migrated away or destroyed).
	StalePlacements int
	// LostPlacements counts records whose VM still exists but is placed
	// nowhere — a VM lost across the restart. Must stay zero.
	LostPlacements int
}

// Overlay is the stack below the cluster: the simulated datacenter network,
// the Pastry ring over it, and one Scribe and one aggregation manager on
// every node. It is all the overlay experiments (Table I, Fig. 14) need,
// and the part of a VBundle that New builds first.
type Overlay struct {
	Engine  *sim.Engine
	Topo    *topology.Topology
	Ring    *pastry.Ring
	Scribes []*scribe.Scribe
	Aggs    []*aggregation.Manager

	aggCfg aggregation.Config
}

// NewOverlay builds the overlay-only stack from the options that concern it
// (Topology, Seed, Pastry, MessageLoss, Shards, Trace, and
// Rebalance.UpdateInterval as the aggregation period). The ring's tables are
// filled at once by pastry.Ring.BuildStatic.
func NewOverlay(opts Options) (*Overlay, error) {
	opts = opts.withDefaults()
	switch opts.Pastry.B {
	case 0, 1, 2, 4: // 0 is the default, 4
	default:
		return nil, fmt.Errorf("core: Pastry.B = %d, must be 1, 2 or 4 (0 for the default)", opts.Pastry.B)
	}
	if opts.Pastry.LeafSize < 0 {
		return nil, fmt.Errorf("core: Pastry.LeafSize = %d, must not be negative (0 for the default)", opts.Pastry.LeafSize)
	}
	if opts.Pastry.NeighborhoodSize < 0 {
		return nil, fmt.Errorf("core: Pastry.NeighborhoodSize = %d, must not be negative (0 for the default)", opts.Pastry.NeighborhoodSize)
	}
	if opts.Rebalance.UpdateInterval < 0 {
		return nil, fmt.Errorf("core: Rebalance.UpdateInterval = %v, must not be negative (0 for the default)", opts.Rebalance.UpdateInterval)
	}
	if !(opts.MessageLoss >= 0 && opts.MessageLoss < 1) {
		return nil, fmt.Errorf("core: MessageLoss = %v, must be in [0, 1)", opts.MessageLoss)
	}
	topo, err := topology.New(opts.Topology)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if hop := topo.Spec().LANHop; opts.Shards > 1 && hop <= 0 {
		// The LAN hop is the shortest link between two servers, so it is the
		// sharded engine's lookahead, which must be positive.
		return nil, fmt.Errorf("core: Shards = %d needs a positive Topology.LANHop (the cross-shard lookahead), have %v", opts.Shards, hop)
	}
	engine := sim.NewShardedEngine(opts.Seed, opts.Shards)
	// Queue-depth diagnostics and — when the trace carries a series — the
	// virtual-time metrics sampler.
	sim.AttachObs(engine, opts.Trace)
	var netOpts []simnet.Option
	if opts.MessageLoss > 0 {
		netOpts = append(netOpts, simnet.WithDropRate(opts.MessageLoss))
	}
	if opts.Trace != nil {
		netOpts = append(netOpts, simnet.WithTrace(opts.Trace))
	}
	ring := pastry.NewRing(engine, topo, opts.Pastry, pastry.HierarchyAssigner, netOpts...)
	ring.BuildStatic()
	ov := &Overlay{
		Engine:  engine,
		Topo:    topo,
		Ring:    ring,
		Scribes: make([]*scribe.Scribe, ring.Size()),
		Aggs:    make([]*aggregation.Manager, ring.Size()),
		aggCfg:  aggregation.Config{UpdateInterval: opts.Rebalance.UpdateInterval},
	}
	for i, node := range ring.Nodes() {
		ov.stack(i, node)
	}
	return ov, nil
}

// stack puts a fresh Scribe and aggregation manager on node i; each layer
// registers its app on the node.
func (ov *Overlay) stack(i int, node *pastry.Node) {
	ov.Scribes[i] = scribe.New(node)
	ov.Aggs[i] = aggregation.New(ov.Scribes[i], ov.aggCfg)
}

// rebuildNode replaces a crashed node's tower with a blank one: the dead
// stack's tickers are quiesced, then the Pastry node and the layers above it
// are rebuilt bottom-up.
func (ov *Overlay) rebuildNode(i int) *pastry.Node {
	ov.Scribes[i].StopMaintenance()
	node := ov.Ring.RebuildNode(i)
	ov.stack(i, node)
	return node
}

// VBundle is a fully wired v-Bundle datacenter simulation: the Overlay plus
// the cluster, the migration manager, the rebalancer, the workload driver
// and the placement engine.
type VBundle struct {
	opts Options

	Overlay
	Cluster    *cluster.Cluster
	Migration  *migration.Manager
	Rebalancer *rebalance.Coordinator
	Placer     placement.Engine
	Workloads  *workload.Driver

	// Recovery accumulates crash-restart outcomes (Options.Store only).
	Recovery RecoveryStats

	// shaper and classes are BandwidthSatisfaction's scratch, reused across
	// servers and samples; ledger is its per-server result, made by its
	// first call.
	shaper  tcshape.Shaper
	classes []tcshape.Class
	ledger  []ledgerEntry

	// maintenance bookkeeping so a restarted node rejoins with the same
	// self-repair posture as its peers.
	maintOn        bool
	maintHeartbeat time.Duration
	// peerTicker runs checkpointLivePeers in the global band (peerCheckpoint).
	peerTicker sim.Ticker
}

// New builds a v-Bundle instance: NewOverlay, then everything above it. The
// instance is ready to place VMs.
func New(opts Options) (*VBundle, error) {
	opts = opts.withDefaults()
	if opts.Rebalance.Threshold < 0 {
		return nil, fmt.Errorf("core: Rebalance.Threshold = %g, must not be negative (0 for the default)", opts.Rebalance.Threshold)
	}
	if opts.Rebalance.RebalanceInterval < 0 {
		return nil, fmt.Errorf("core: Rebalance.RebalanceInterval = %v, must not be negative (0 for the default)", opts.Rebalance.RebalanceInterval)
	}
	if opts.Rebalance.LeaseDuration < 0 {
		return nil, fmt.Errorf("core: Rebalance.LeaseDuration = %v, must not be negative (0 for the default)", opts.Rebalance.LeaseDuration)
	}
	ov, err := NewOverlay(opts)
	if err != nil {
		return nil, err
	}
	engine, ring := ov.Engine, ov.Ring
	// Every server is a dual-socket testbed machine (16 cores, 16 GB); its
	// bandwidth is the topology's NIC rate.
	cl := cluster.New(ov.Topo, cluster.Resources{CPU: 16, MemMB: 16384})

	vb := &VBundle{
		opts:      opts,
		Overlay:   *ov,
		Cluster:   cl,
		Migration: migration.New(engine, cl),
	}
	// Crashed servers abort their in-flight migrations instead of landing
	// VMs on (or streaming them from) dead hardware.
	vb.Migration.SetLiveness(func(s int) bool { return ring.Network().Alive(simnet.Addr(s)) })
	// Migration start times are read from the source server's clock — its
	// shard engine under sharding.
	vb.Migration.SetEngineFor(func(s int) *sim.Engine { return ring.Network().EngineFor(simnet.Addr(s)) })
	if opts.Trace != nil {
		vb.Migration.SetTrace(opts.Trace)
	}
	vb.Rebalancer = rebalance.NewCoordinator(ring, cl, vb.Migration, vb.Aggs, opts.Rebalance)
	vb.Workloads = workload.NewDriver(engine, cl)

	switch opts.Engine {
	case EngineDHT:
		vb.Placer = placement.NewDHT(ring, cl, placement.DHTConfig{})
	case EngineGreedy:
		vb.Placer = placement.NewGreedy(cl)
	case EngineRandom:
		vb.Placer = placement.NewRandom(cl, engine.Rand())
	default:
		return nil, fmt.Errorf("core: unknown engine kind %d", opts.Engine)
	}
	if opts.Store != nil {
		vb.Rebalancer.SetStore(opts.Store)
		cl.OnServerChange(vb.checkpointPlacements)
		ring.Network().SetRestarter(vb.restartNode)
		// Seed the store with the freshly built overlay's peer snapshots so
		// even a node that crashes before any maintenance ran can rejoin.
		for i := range ring.Nodes() {
			vb.checkpointPeers(i)
		}
	}
	return vb, nil
}

// checkpointPlacements writes server i's placement map through to the
// durable store; the cluster invokes it after every placement mutation.
func (vb *VBundle) checkpointPlacements(server int) {
	vms := vb.Cluster.Server(server).VMs()
	recs := make([]store.PlacementRecord, 0, len(vms))
	for _, vm := range vms {
		recs = append(recs, store.PlacementRecord{VM: int64(vm.ID), Customer: vm.Customer, Server: server})
	}
	if err := vb.opts.Store.SavePlacements(server, recs); err != nil {
		panic(fmt.Sprintf("core: checkpointing placements of server %d: %v", server, err))
	}
}

// checkpointPeers snapshots node i's current routing state (leaf sets,
// routing table, neighbors) into the store as flat peer records.
func (vb *VBundle) checkpointPeers(i int) {
	hs := vb.Ring.Node(i).Peers()
	recs := make([]store.PeerRecord, 0, len(hs))
	for _, h := range hs {
		recs = append(recs, store.PeerRecord{IdHi: h.Id.Hi(), IdLo: h.Id.Lo(), Addr: int(h.Addr)})
	}
	if err := vb.opts.Store.SavePeers(i, recs); err != nil {
		panic(fmt.Sprintf("core: checkpointing peers of node %d: %v", i, err))
	}
}

// restartNode is the simnet restarter: a crashed node reboots here with a
// blank stack. It loads whatever the durable store held, rebuilds the whole
// per-node tower (pastry node, scribe, aggregation, placement agent,
// rebalance agent), then reconciles with the live ring — re-announce to
// surviving peers, re-adopt still-valid leases, drop orphaned holds, and
// verify the persisted placement map against the cluster. The whole
// sequence runs at one exclusive global instant, so it is deterministic at
// any shard count.
func (vb *VBundle) restartNode(addr simnet.Addr) {
	i := int(addr)
	st, hadState, err := vb.opts.Store.Load(i)
	if err != nil {
		panic(fmt.Sprintf("core: restart of node %d: loading durable state: %v", i, err))
	}

	node := vb.rebuildNode(i)
	if d, ok := vb.Placer.(*placement.DHT); ok {
		d.RebindNode(i)
	}
	agent := vb.Rebalancer.ReplaceAgent(i, node, vb.Aggs[i])

	src := vb.Ring.Network().TraceSource(addr)
	now := vb.Engine.Now()
	durable := int64(0)
	if hadState {
		durable = 1
	}
	peers := make([]pastry.NodeHandle, 0, len(st.Peers))
	for _, p := range st.Peers {
		peers = append(peers, pastry.NodeHandle{Id: ids.New(p.IdHi, p.IdLo), Addr: simnet.Addr(p.Addr)})
	}
	// The checkpoint is whatever the store returned: Rejoin skips the peers
	// this ring does not have (a store written by a ring of another size or
	// assigner) and the span carries their count. Rejoin records nothing, so
	// the span still opens ahead of everything the reconciliation emits.
	foreign := node.Rejoin(peers)
	rejoin := src.Begin(now, obs.KindRejoin, obs.NoRef, int64(foreign), durable)

	// Before the rebalancer's first start no agent exists, and none ever
	// held a lease to adopt.
	adopted, released := 0, 0
	if agent != nil {
		adopted, released = agent.AdoptLeases(st.Leases, rejoin)
	}

	verified, stale, lost := 0, 0, 0
	for _, rec := range st.Placements {
		vmid := cluster.VMID(rec.VM)
		if srv, placed := vb.Cluster.LocationOf(vmid); placed {
			if srv == rec.Server {
				verified++
			} else {
				stale++ // migrated away while we were down
			}
		} else if vb.Cluster.VM(vmid) != nil {
			lost++ // still registered but placed nowhere
		} else {
			stale++ // destroyed while we were down
		}
	}
	src.End(now, obs.KindRejoin, rejoin, int64(adopted), int64(released))

	// The rebuilt node's view is the new durable truth.
	vb.checkpointPlacements(i)
	vb.checkpointPeers(i)

	if vb.maintOn {
		node.StartMaintenance()
		vb.Scribes[i].StartMaintenance(vb.maintHeartbeat)
	}

	vb.Recovery.Restarts++
	if !hadState {
		vb.Recovery.BlankBoots++
	}
	vb.Recovery.AdoptedLeases += adopted
	vb.Recovery.ReleasedLeases += released
	vb.Recovery.VerifiedPlacements += verified
	vb.Recovery.StalePlacements += stale
	vb.Recovery.LostPlacements += lost
}

// Options returns the effective options the instance was built with.
func (vb *VBundle) Options() Options { return vb.opts }

// AttachAudit wires the online invariant auditor over this instance's full
// stack. Returns nil (a valid, disabled auditor) when cfg.Every <= 0.
func (vb *VBundle) AttachAudit(cfg audit.Config) *audit.Auditor {
	return audit.Attach(cfg, audit.Targets{
		Engine:     vb.Engine,
		Cluster:    vb.Cluster,
		Rebalancer: vb.Rebalancer,
		Migration:  vb.Migration,
		Aggs:       vb.Aggs,
		Trace:      vb.opts.Trace,
	})
}

// BootVM creates a VM for the customer and places it through the configured
// engine, driving the simulation until the placement query resolves.
func (vb *VBundle) BootVM(customer string, reservation, limit cluster.Resources) (*cluster.VM, placement.Result, error) {
	vm, err := vb.Cluster.CreateVM(customer, reservation, limit)
	if err != nil {
		return nil, placement.Result{}, err
	}
	res, err := vb.placeAndWait(vm)
	return vm, res, err
}

func (vb *VBundle) placeAndWait(vm *cluster.VM) (placement.Result, error) {
	var (
		res  placement.Result
		rerr error
		done bool
	)
	vb.Placer.Place(vm, func(r placement.Result, err error) {
		res, rerr, done = r, err, true
	})
	for !done && vb.Engine.Step() {
	}
	if !done {
		return placement.Result{}, fmt.Errorf("core: placement of vm %d never resolved", vm.ID)
	}
	return res, rerr
}

// StartServices turns on the periodic machinery: aggregation trees and the
// rebalancer on every server.
func (vb *VBundle) StartServices() { vb.Rebalancer.Start() }

// StopServices halts the periodic machinery.
func (vb *VBundle) StopServices() { vb.Rebalancer.Stop() }

// StartMaintenance turns on the self-repair machinery: Pastry leaf-set
// probing and Scribe tree heartbeats on every node. Needed for runs with
// server failures or message loss; pure-performance experiments leave it
// off to keep their traffic budgets clean.
func (vb *VBundle) StartMaintenance(heartbeat time.Duration) {
	vb.maintOn = true
	vb.maintHeartbeat = heartbeat
	vb.Ring.StartMaintenance()
	for _, s := range vb.Scribes {
		s.StartMaintenance(heartbeat)
	}
	// Routing state drifts under maintenance (failures heal, rejoiners are
	// re-adopted), so refresh every live node's durable peer snapshot
	// periodically in the global band.
	if vb.opts.Store != nil {
		vb.peerTicker.StartGlobal((*peerCheckpoint)(vb))
	}
}

// peerCheckpoint is the instance as what its peer ticker runs.
type peerCheckpoint VBundle

func (p *peerCheckpoint) Fire() { (*VBundle)(p).checkpointLivePeers() }
func (p *peerCheckpoint) Period() (*sim.Engine, time.Duration) {
	return p.Engine, peerCheckpointInterval
}

// checkpointLivePeers refreshes every live node's durable peer snapshot.
func (vb *VBundle) checkpointLivePeers() {
	for i := 0; i < vb.Ring.Size(); i++ {
		if vb.Ring.Network().Alive(simnet.Addr(i)) {
			vb.checkpointPeers(i)
		}
	}
}

// StopMaintenance halts the self-repair machinery.
func (vb *VBundle) StopMaintenance() {
	vb.maintOn = false
	vb.Ring.StopMaintenance()
	for _, s := range vb.Scribes {
		s.StopMaintenance()
	}
	vb.peerTicker.Stop()
}

// RunFor advances virtual time by d, executing everything scheduled within.
func (vb *VBundle) RunFor(d time.Duration) { vb.Engine.RunFor(d) }

// Now returns the current virtual time.
func (vb *VBundle) Now() time.Duration { return vb.Engine.Now() }

// UtilizationSnapshot returns per-server bandwidth utilization (Fig. 9's
// scatter).
func (vb *VBundle) UtilizationSnapshot() []float64 { return vb.Cluster.UtilizationSnapshot() }

// UtilizationStdDev returns the standard deviation of server utilizations
// (Fig. 10's Y axis).
func (vb *VBundle) UtilizationStdDev() float64 {
	return metrics.StdOf(vb.Cluster.UtilizationSnapshot())
}

// BandwidthReport is the cluster-wide demand-versus-delivery accounting
// behind Fig. 11.
type BandwidthReport struct {
	// DemandMbps is the total effective demand (capped by per-VM limits).
	DemandMbps float64
	// SatisfiedMbps is what the per-server shapers actually deliver.
	SatisfiedMbps float64
}

// ledgerEntry is one server's shaped bandwidth as of its generation gen
// (cluster.Server.Generation).
type ledgerEntry struct {
	gen               uint32
	satisfied, wanted float64
}

// BandwidthSatisfaction runs the tc-style allocator on every server and
// aggregates delivered versus demanded bandwidth. A server is re-shaped
// only when its generation moved since the last call — a VM arrived or
// left, or a hosted VM's demand changed — and always in full; the sum then
// runs over every server in index order, so the report has the bits a
// sweep shaping every server would give. It reuses one class buffer, one
// shaper and the ledger held on the VBundle, so it must only be called
// from the serial band — an EveryGlobal sampler, or a main between runs —
// never from per-node events that shards execute concurrently.
func (vb *VBundle) BandwidthSatisfaction() BandwidthReport {
	servers := vb.Cluster.Servers()
	if vb.ledger == nil {
		vb.ledger = make([]ledgerEntry, len(servers))
	}
	var rep BandwidthReport
	for i, srv := range servers {
		if srv.NumVMs() == 0 {
			continue
		}
		// An entry starts at generation 0, which a server holding VMs has
		// left: its first Admit moved it.
		e := &vb.ledger[i]
		if gen := srv.Generation(); e.gen != gen {
			vb.classes = rebalance.AppendClasses(vb.classes[:0], srv)
			e.satisfied, e.wanted = vb.shaper.Satisfied(srv.Capacity.BandwidthMbps, vb.classes)
			e.gen = gen
		}
		rep.SatisfiedMbps += e.satisfied
		rep.DemandMbps += e.wanted
	}
	return rep
}

// AvailableBandwidth probes how much bandwidth a VM could obtain on its
// current server if it asked for its full limit, with every other VM's
// demand unchanged — the headroom a latency-sensitive application really
// has, as opposed to the exact share the shaper currently delivers.
func (vb *VBundle) AvailableBandwidth(id cluster.VMID) float64 {
	server, placed := vb.Cluster.LocationOf(id)
	if !placed {
		return 0
	}
	srv := vb.Cluster.Server(server)
	classes := rebalance.AppendClasses(nil, srv)
	for i, vm := range srv.VMs() {
		if vm.ID == id {
			classes[i].Demand = vm.Limit.BandwidthMbps
			return tcshape.Allocate(srv.Capacity.BandwidthMbps, classes)[i]
		}
	}
	return 0
}

// PlacementQuality reports the locality of the current placement (Fig. 7/8).
func (vb *VBundle) PlacementQuality() placement.QualityReport {
	return placement.Quality(vb.Cluster)
}
