// Package rebalance implements v-Bundle's decentralized resource shuffling
// algorithm (paper §III): every server learns the cluster-wide mean
// utilization through aggregation trees (BW_Capacity and BW_Demand for the
// paper's bandwidth focus), classifies itself as a load shedder
// (utilization above mean + threshold) or load receiver (below mean −
// threshold), and shedders discover receivers through the Less-Loaded
// Scribe any-cast group.
//
// The exchange protocol follows the paper's four steps (§III.C):
//
//  1. a shedder periodically any-casts a load-balance query carrying the
//     evacuated VM's resource requirements;
//  2. the any-cast DFS prefers topologically close receivers, keeping the
//     bandwidth-preserving placement intact;
//  3. the first receiver that (a) can still reserve the VM's guarantees
//     and (b) would stay under mean + threshold after accepting answers
//     and holds the resources while the VM is in flight;
//  4. the shedder live-migrates the VM and stops querying once its own
//     utilization falls back to the average line.
//
// Two §VII extensions are implemented: the rebalancer can track multiple
// metrics at once (bandwidth, CPU, memory — Config.Kinds), and a migration
// cost-benefit module can veto moves whose predicted overhead exceeds the
// bandwidth they would recover (Config.CostBenefit).
package rebalance

import (
	"fmt"
	"slices"
	"time"

	"vbundle/internal/aggregation"
	"vbundle/internal/cluster"
	"vbundle/internal/costbenefit"
	"vbundle/internal/ids"
	"vbundle/internal/migration"
	"vbundle/internal/obs"
	"vbundle/internal/pastry"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/store"
	"vbundle/internal/tcshape"
)

// Group and application names from the paper (Fig. 4 and §III.C).
const (
	// TopicCapacity aggregates per-server NIC capacity (bandwidth kind).
	TopicCapacity = "BW_Capacity"
	// TopicDemand aggregates per-server bandwidth demand (bandwidth kind).
	TopicDemand = "BW_Demand"
	// LessLoadedGroup is the any-cast group load receivers join.
	LessLoadedGroup = "less-loaded"
	// AppName is the Pastry application name for direct agent messages.
	AppName = "vb-rebal"
)

// lessLoadedKey is the any-cast group's identifier, hashed once: every join,
// leave and shed query addresses the group by it.
var lessLoadedKey = scribe.GroupKey(LessLoadedGroup)

// topicCapacityFor and topicDemandFor name the per-kind aggregation topics;
// the bandwidth kind keeps the paper's names.
func topicCapacityFor(k cluster.Kind) string {
	switch k {
	case cluster.KindBandwidth:
		return TopicCapacity
	case cluster.KindCPU:
		return "CPU_Capacity"
	case cluster.KindMemory:
		return "Mem_Capacity"
	default:
		return "X_Capacity"
	}
}

func topicDemandFor(k cluster.Kind) string {
	switch k {
	case cluster.KindBandwidth:
		return TopicDemand
	case cluster.KindCPU:
		return "CPU_Demand"
	case cluster.KindMemory:
		return "Mem_Demand"
	default:
		return "X_Demand"
	}
}

// Role is a server's self-identified position relative to the cluster mean.
type Role int

// Roles.
const (
	// RoleNeutral servers neither shed nor receive.
	RoleNeutral Role = iota + 1
	// RoleShedder servers are above mean + threshold and evacuate VMs.
	RoleShedder
	// RoleReceiver servers are below mean − threshold and accept VMs.
	RoleReceiver
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleNeutral:
		return "neutral"
	case RoleShedder:
		return "shedder"
	case RoleReceiver:
		return "receiver"
	default:
		return "unknown"
	}
}

// Config tunes the rebalancer.
type Config struct {
	// Threshold is the margin over the mean utilization line; the paper
	// sweeps 0.1/0.183/0.3. Defaults to 0.183 (Fig. 10's setting).
	Threshold float64
	// UpdateInterval is the demand-sampling period (paper: 5 minutes).
	UpdateInterval time.Duration
	// RebalanceInterval is the shedder query period (paper: 25 minutes).
	RebalanceInterval time.Duration
	// MaxShedsPerRound bounds how many VMs one shedder evacuates per
	// rebalance round. Defaults to 4.
	MaxShedsPerRound int
	// Kinds lists the resources the rebalancer tracks; a server sheds when
	// ANY kind exceeds its band and receives only when ALL kinds have
	// room. Defaults to bandwidth only, as in the paper's evaluation; the
	// multi-metric extension of §VII adds CPU and memory.
	Kinds []cluster.Kind
	// SameCustomerOnly restricts exchanges to the paper's bundle
	// semantics: a VM may only move to a server already hosting VMs of
	// the same customer whose purchased reservations exceed their current
	// demand — "borrow unused... bandwidth from lightly loaded ones, as
	// long as all of those VMs belong to the same customer" (§I).
	SameCustomerOnly bool
	// CostBenefit, when non-nil, enables the §V.B cost-benefit analysis:
	// an accepted exchange is migrated only if the predicted recovered
	// bandwidth outweighs the predicted migration overhead.
	CostBenefit *costbenefit.Config
	// LeaseDuration bounds how long a receiver holds resources for an
	// inbound VM without hearing from the shedder again. The lease is the
	// backstop against lost releases and dead shedders: whatever happens on
	// the wire, a hold is reclaimed at most one lease after its last
	// renewal. A shedder renews the lease every LeaseDuration/3 while the
	// migration is in flight, so two consecutive renewals must be lost
	// before a live migration's hold can lapse. Defaults to 30 seconds.
	LeaseDuration time.Duration
}

// The release exchange: an unacknowledged release is resent after
// releaseRetryInterval, doubling per attempt, at most releaseRetries times;
// beyond that the receiver's lease expiry reclaims the hold.
const (
	releaseRetryInterval = 2 * time.Second
	releaseRetries       = 5
)

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 0.183
	}
	if c.UpdateInterval == 0 {
		c.UpdateInterval = 5 * time.Minute
	}
	if c.RebalanceInterval == 0 {
		c.RebalanceInterval = 25 * time.Minute
	}
	if c.MaxShedsPerRound == 0 {
		c.MaxShedsPerRound = 4
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []cluster.Kind{cluster.KindBandwidth}
	}
	if c.LeaseDuration == 0 {
		c.LeaseDuration = 30 * time.Second
	}
	return c
}

// Coordinator wires one rebalancing agent per server and drives the
// periodic cycle. It is a construction convenience: all decisions stay
// local to the per-server agents.
type Coordinator struct {
	cfg      Config
	ring     *pastry.Ring
	cl       *cluster.Cluster
	mig      *migration.Manager
	analyzer *costbenefit.Analyzer // nil when cost-benefit is disabled
	agents   []*Agent

	// onMigrated, when set, observes every rebalance-driven migration
	// attempt as its shed chain completes (keyed band, deterministic
	// order). The serving layer evicts its resolution cache here.
	onMigrated func(vm *cluster.VM, err error)

	// store, when set, receives a write-through copy of every agent's lease
	// table: leases are the one piece of rebalancer state that must survive
	// a crash (a hold protects another server's in-flight VM).
	store *store.MemStore

	started bool
}

// NewCoordinator builds agents on top of existing per-node aggregation
// managers (one per ring node, index-aligned with servers).
func NewCoordinator(ring *pastry.Ring, cl *cluster.Cluster, mig *migration.Manager, managers []*aggregation.Manager, cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{cfg: cfg, ring: ring, cl: cl, mig: mig}
	if cfg.CostBenefit != nil {
		c.analyzer = costbenefit.New(*cfg.CostBenefit)
	}
	// One slice for all the agents, as NewRing carves its nodes; a replaced
	// agent (ReplaceAgent) is an object of its own.
	agents := make([]Agent, ring.Size())
	c.agents = make([]*Agent, ring.Size())
	for i := range c.agents {
		c.agents[i] = &agents[i]
		agents[i].init(c, ring.Node(i), managers[i])
	}
	return c
}

// Config returns the effective configuration.
func (c *Coordinator) Config() Config { return c.cfg }

// SetOnMigrated installs the hook observing rebalance-driven migration
// completions (nil err = the VM moved). Set it before Start.
func (c *Coordinator) SetOnMigrated(fn func(vm *cluster.VM, err error)) { c.onMigrated = fn }

// Agent returns the agent for server i.
func (c *Coordinator) Agent(i int) *Agent { return c.agents[i] }

// SetStore attaches the per-node durable store: every lease mutation is
// written through, and LeakedReservations consults the store for nodes that
// are currently down. Set it before Start.
func (c *Coordinator) SetStore(st *store.MemStore) { c.store = st }

// ReplaceAgent rebuilds server i's agent on a freshly rebuilt node after a
// crash: the old agent (whose node is a corpse) is stopped, and the new one
// starts blank — re-adopting persisted leases is the rejoin path's job, via
// AdoptLeases.
func (c *Coordinator) ReplaceAgent(i int, node *pastry.Node, agg *aggregation.Manager) *Agent {
	c.agents[i].stop()
	a := new(Agent)
	a.init(c, node, agg)
	c.agents[i] = a
	if c.started {
		a.start()
	}
	return a
}

// Start subscribes every agent, seeds local values, and begins the periodic
// update and rebalance cycles.
func (c *Coordinator) Start() {
	if c.started {
		return
	}
	c.started = true
	for _, a := range c.agents {
		a.start()
	}
}

// Stop halts all periodic activity.
func (c *Coordinator) Stop() {
	if !c.started {
		return
	}
	c.started = false
	for _, a := range c.agents {
		a.stop()
	}
}

// MigrationsTriggered sums the shed attempts that led to migrations.
func (c *Coordinator) MigrationsTriggered() int {
	total := 0
	for _, a := range c.agents {
		total += int(a.migrationsTriggered.Value())
	}
	return total
}

// QueriesSent sums the any-cast load-balance queries issued.
func (c *Coordinator) QueriesSent() int {
	total := 0
	for _, a := range c.agents {
		total += int(a.queriesSent.Value())
	}
	return total
}

// LeakedReservations counts resource holds still live across all agents.
// Once a run quiesces (no in-flight migrations, one lease period of grace)
// it must read zero: every hold was either released by its shedder or
// reclaimed by expiry.
//
// For a node that is currently down, the in-memory table is a ghost (a
// crashed node's agent object lingers until the restart replaces it, frozen
// at its pre-crash contents), so with a store attached the persisted lease
// section is authoritative: expiry is applied here, at read time, because
// the dead holder will never sweep again. Without a store, down nodes fall
// back to the in-memory table — which is exactly the under-report the
// durable path fixes.
func (c *Coordinator) LeakedReservations() int {
	total := 0
	for i, a := range c.agents {
		if c.store != nil && !c.ring.Network().Alive(simnet.Addr(i)) {
			st, ok, err := c.store.Load(i)
			if err != nil {
				panic(fmt.Sprintf("rebalance: lease audit of down node %d: %v", i, err))
			}
			if !ok {
				continue
			}
			now := a.node.Engine().Now()
			for _, r := range st.Leases {
				if r.Expires > now {
					total++
				}
			}
			continue
		}
		a.sweepLeases()
		total += a.reserved.len()
	}
	return total
}

// ReserveStats sums the reservation-protocol counters across all agents.
func (c *Coordinator) ReserveStats() ReserveStats {
	var s ReserveStats
	for _, a := range c.agents {
		s = s.add(a.reserveStats.stats())
	}
	return s
}

// Agent is the per-server rebalancing logic.
type Agent struct {
	pastry.BaseApp
	coord *Coordinator
	// node is the server's node; its address is the server's index.
	node *pastry.Node
	agg  *aggregation.Manager

	role Role
	// means holds the last computed cluster mean per kind, indexed by
	// cluster.Kind (a dense 1..3 range): a fixed array instead of a map,
	// because every agent reads it on the rebalance hot path and a cluster
	// has one agent per server.
	means    [kindSlots]float64
	haveMean bool // every tracked kind has a mean
	inGroup  bool

	// reserved holds resources promised to accepted inbound VMs while they
	// migrate (paper step 3: "hold part of its bandwidth waiting"), one
	// record per VM under an expiring lease so a lost release or a dead
	// shedder cannot strand the hold forever.
	reserved     reservationTable
	reserveStats reserveCounts
	// recentReleases remembers the last few released VM ids so a retried
	// release whose ack was lost is counted as a duplicate, not unknown.
	recentReleases []cluster.VMID
	// sheds tracks outbound VMs already committed this round, each with its
	// accepted destination once the any-cast resolves (so an orphaned
	// duplicate accept from the same receiver is not released out from
	// under the running migration). A flat slice replaces the former two
	// maps: entries number at most MaxShedsPerRound, so a linear scan is
	// cheaper than hashing and the state is two pointers, not two tables.
	sheds []shedState
	// releaseAwait is the set of releases sent but not yet acknowledged,
	// keyed by (vm, receiver) so concurrent releases of one VM to different
	// receivers (live exchange plus an orphaned accept) stay independent.
	// A handful at most, so a slice, kept with its capacity.
	releaseAwait []releaseKey
	// onAnycast is considerQuery bound once, at the agent's first join, for
	// every later join of the Less-Loaded group.
	onAnycast func(ids.Id, simnet.Message, pastry.NodeHandle) bool

	// updateTicker runs publishLocal (updateTick), rebalanceTicker
	// rebalanceRound (rebalanceTick).
	updateTicker, rebalanceTicker sim.Ticker

	migrationsTriggered obs.Counter
	queriesSent         obs.Counter
	vetoedByCost        obs.Counter

	// obs is the node's flight-recorder source.
	obs *obs.Source
	// leaseHold records each hold's grant-to-end duration (nil when
	// tracing is off; Record on nil is a no-op).
	leaseHold *obs.Histogram
}

type releaseKey struct {
	vm   cluster.VMID
	addr simnet.Addr
}

// kindSlots sizes per-kind arrays indexed directly by cluster.Kind.
const kindSlots = int(cluster.KindMemory) + 1

// shedState is one outbound VM committed this round.
type shedState struct {
	vm       cluster.VMID
	dest     pastry.NodeHandle
	haveDest bool
}

// shedEntry returns the committed-shed record for vm, or nil.
func (a *Agent) shedEntry(vm cluster.VMID) *shedState {
	for i := range a.sheds {
		if a.sheds[i].vm == vm {
			return &a.sheds[i]
		}
	}
	return nil
}

func (a *Agent) isShedding(vm cluster.VMID) bool { return a.shedEntry(vm) != nil }

func (a *Agent) addShed(vm cluster.VMID) {
	if cap(a.sheds) == 0 {
		a.sheds = shedLists.Of(a.node.Engine()).New()[:0]
	}
	a.sheds = append(a.sheds, shedState{vm: vm})
}

func (a *Agent) dropShed(vm cluster.VMID) {
	for i := range a.sheds {
		if a.sheds[i].vm == vm {
			a.sheds = append(a.sheds[:i], a.sheds[i+1:]...)
			return
		}
	}
}

// shedDestOf returns the accepted destination of a live exchange for vm.
func (a *Agent) shedDestOf(vm cluster.VMID) (pastry.NodeHandle, bool) {
	if e := a.shedEntry(vm); e != nil && e.haveDest {
		return e.dest, true
	}
	return pastry.NodeHandle{}, false
}

// init makes a server's agent on node and registers it there, where scribe
// also finds it as the node's OrphanAcceptor.
func (a *Agent) init(coord *Coordinator, node *pastry.Node, agg *aggregation.Manager) {
	*a = Agent{
		coord: coord,
		node:  node,
		agg:   agg,
		role:  RoleNeutral,
		obs:   node.Obs(),
	}
	if reg := node.Network().Trace().Registry(); reg != nil {
		reg.Register("rebalance/migrations_triggered", &a.migrationsTriggered)
		reg.Register("rebalance/queries_sent", &a.queriesSent)
		reg.Register("rebalance/vetoed_by_cost", &a.vetoedByCost)
		a.leaseHold = &obs.Histogram{}
		reg.RegisterHistogram("rebalance/lease_hold_ns", a.leaseHold)
	}
	node.Register(AppName, a)
}

// server is the index of the agent's server: its node's address.
func (a *Agent) server() int { return int(a.node.Addr()) }

// Role returns the agent's current self-identification.
func (a *Agent) Role() Role { return a.role }

// The agent as the listener of its subscriptions and as what its two tickers
// run: a named pointer type a role, so each has its own methods and none
// binds an object.
type (
	reevaluator   Agent
	updateTick    Agent
	rebalanceTick Agent
)

func (r *reevaluator) GlobalChanged(aggregation.Global) { (*Agent)(r).reevaluate() }

func (u *updateTick) Fire() { (*Agent)(u).publishLocal() }
func (u *updateTick) Period() (*sim.Engine, time.Duration) {
	return u.node.Engine(), u.coord.cfg.UpdateInterval
}

func (r *rebalanceTick) Fire() { (*Agent)(r).rebalanceRound() }
func (r *rebalanceTick) Period() (*sim.Engine, time.Duration) {
	return r.node.Engine(), r.coord.cfg.RebalanceInterval
}

func (a *Agent) start() {
	for _, k := range a.coord.cfg.Kinds {
		a.agg.Subscribe(topicCapacityFor(k), (*reevaluator)(a))
		a.agg.Subscribe(topicDemandFor(k), (*reevaluator)(a))
	}
	a.publishLocal()
	a.agg.Start()
	a.updateTicker.Start((*updateTick)(a))
	a.rebalanceTicker.Start((*rebalanceTick)(a))
}

func (a *Agent) stop() {
	a.updateTicker.Stop()
	a.rebalanceTicker.Stop()
	a.agg.Stop()
	a.leaveGroup()
}

// publishLocal pushes the server's current capacity and demand for every
// tracked kind into the aggregation trees (the periodic leaf update of
// §III.C step 1).
func (a *Agent) publishLocal() {
	srv := a.coord.cl.Server(a.server())
	for _, k := range a.coord.cfg.Kinds {
		a.agg.SetLocal(topicCapacityFor(k), srv.Capacity.Get(k))
		a.agg.SetLocal(topicDemandFor(k), srv.DemandOf(k))
	}
}

// HeldLeases reports how many unexpired reservation holds the agent
// currently has. Read-only — no sweep, no persistence — so fault
// experiments can use it to aim crashes at nodes whose durable lease
// state is actually worth reconciling.
func (a *Agent) HeldLeases() int {
	now := a.node.Engine().Now()
	n := 0
	for i := range a.reserved.entries {
		if a.reserved.entries[i].expires > now {
			n++
		}
	}
	return n
}

// Stats returns a copy of the agent's reservation-protocol counters.
// Read-only; the online auditor balances them against the live table.
func (a *Agent) Stats() ReserveStats { return a.reserveStats.stats() }

// EachHold calls fn for every reservation currently in the table, in VM-id
// order, including lazily-unswept expired entries. Strictly read-only — no
// sweep, no persistence, no trace events — so the online auditor can walk
// holds without perturbing the run.
func (a *Agent) EachHold(fn func(vm cluster.VMID, granted, expires time.Duration)) {
	for i := range a.reserved.entries {
		e := &a.reserved.entries[i]
		fn(e.vm, e.granted, e.expires)
	}
}

// HoldCount returns the reservation-table size, lazily-unswept expired
// entries included (read-only, unlike HeldLeases' semantic cousin
// LeakedReservations which sweeps).
func (a *Agent) HoldCount() int { return a.reserved.len() }

// sweepLeases reclaims holds whose lease ran out; every read of the
// reservation table goes through here, so expiry needs no engine events.
// expiredScratch is where sweepLeases collects the reclaimed holds of a
// traced run for their lease-end events: one list an engine, reused by every
// sweep of its agents (sweeps run on every utilization read, so no per-sweep
// allocation).
var expiredScratch = sim.NewLocal[[]reservation]()

func (a *Agent) sweepLeases() {
	now := a.node.Engine().Now()
	if !a.obs.Enabled() {
		if n := a.reserved.sweep(now, nil); n > 0 {
			a.reserveStats.Expired += int32(n)
			a.persistLeases()
		}
		return
	}
	expired := expiredScratch.Of(a.node.Engine())
	*expired = (*expired)[:0]
	n := a.reserved.sweep(now, expired)
	a.reserveStats.Expired += int32(n)
	for i := range *expired {
		e := &(*expired)[i]
		// The hold ended when the lease ran out, not when this lazy sweep
		// noticed: expires-granted is the true (and sweep-schedule
		// independent) hold duration.
		a.leaseHold.RecordDuration(e.expires - e.granted)
		a.obs.End(now, obs.KindLease, e.trace, int64(e.vm), 1)
	}
	if n > 0 {
		a.persistLeases()
	}
}

// persistLeases writes the agent's full lease table through to the durable
// store. Every mutation path (grant, renew, release, expiry sweep, rejoin
// adoption) calls it, so replaying the latest save is always idempotent.
func (a *Agent) persistLeases() {
	st := a.coord.store
	if st == nil {
		return
	}
	recs := make([]store.LeaseRecord, 0, a.reserved.len())
	for i := range a.reserved.entries {
		e := &a.reserved.entries[i]
		recs = append(recs, store.LeaseRecord{
			VM:          int64(e.vm),
			DemandCPU:   e.demand.CPU,
			DemandMemMB: e.demand.MemMB,
			DemandBW:    e.demand.BandwidthMbps,
			Expires:     e.expires,
		})
	}
	if err := st.SaveLeases(a.server(), recs); err != nil {
		panic(fmt.Sprintf("rebalance: persisting leases of node %d: %v", a.server(), err))
	}
}

// AdoptLeases reconciles the persisted lease section during rejoin. Each
// record is re-adopted only if its hold still protects something — the
// lease is unexpired, the VM's migration is still in flight, and the VM has
// not already arrived here; everything else is dropped (the orphan release
// the crashed node could never perform). Verdicts are recorded as
// lease_adopt events parented to the rejoin span.
func (a *Agent) AdoptLeases(recs []store.LeaseRecord, rejoin obs.Ref) (adopted, dropped int) {
	now := a.node.Engine().Now()
	for _, r := range recs {
		vm := cluster.VMID(r.VM)
		keep := r.Expires > now && a.coord.mig.InFlight(vm)
		if keep {
			if srv, placed := a.coord.cl.LocationOf(vm); placed && srv == a.server() {
				keep = false // already arrived; its demand counts directly now
			}
		}
		if !keep {
			dropped++
			a.obs.Instant(now, obs.KindLeaseAdopt, rejoin, int64(vm), 1)
			continue
		}
		demand := cluster.Resources{CPU: r.DemandCPU, MemMB: r.DemandMemMB, BandwidthMbps: r.DemandBW}
		a.hold(vm, demand, now, r.Expires)
		a.reserveStats.Adopted++
		if a.obs.Enabled() {
			// The pre-crash span is lost with the node; the adopted hold
			// opens a fresh one under the rejoin.
			a.reserved.get(vm).trace = a.obs.Begin(now, obs.KindLease, rejoin, int64(vm), 0)
		}
		adopted++
		a.obs.Instant(now, obs.KindLeaseAdopt, rejoin, int64(vm), 0)
	}
	if adopted > 0 || dropped > 0 {
		a.persistLeases()
	}
	return adopted, dropped
}

// utilizationOf is the server's utilization for one kind, including
// resources held for in-flight arrivals.
func (a *Agent) utilizationOf(k cluster.Kind) float64 {
	srv := a.coord.cl.Server(a.server())
	cap := srv.Capacity.Get(k)
	if cap == 0 {
		return 0
	}
	a.sweepLeases()
	return (srv.DemandOf(k) + a.reserved.pendingOf(k)) / cap
}

// reevaluate recomputes the per-kind means from the freshest globals and
// flips the agent's role, joining or leaving the Less-Loaded group as
// needed. With multiple kinds, a server sheds when ANY kind is over its
// band and receives only when ALL kinds are comfortably below it.
func (a *Agent) reevaluate() {
	for _, k := range a.coord.cfg.Kinds {
		dem, okD := a.agg.Global(topicDemandFor(k))
		cap, okC := a.agg.Global(topicCapacityFor(k))
		if !okD || !okC || cap.Sum <= 0 {
			return // wait until every tracked kind has a global
		}
		a.means[k] = dem.Sum / cap.Sum
	}
	a.haveMean = true
	thr := a.coord.cfg.Threshold

	anyHot, allCool := false, true
	for _, k := range a.coord.cfg.Kinds {
		mean := a.means[k]
		util := a.utilizationOf(k)
		if util > mean+thr {
			anyHot = true
		}
		if mean == 0 {
			// Nobody in the cluster demands this kind: it cannot make a
			// server hot and poses no receiving risk, so it neither
			// disqualifies receivers nor (above) flags shedders.
			continue
		}
		// Receiver cut: mean − threshold per the paper; when a kind's
		// cluster mean is lower than the threshold itself that bound is
		// negative and no receiver could ever exist even while individual
		// servers are hot, so the cut falls back to the average line
		// ("smaller than the average line", §III.C).
		cut := mean - thr
		if cut <= 0 {
			cut = mean
		}
		if util >= cut {
			allCool = false
		}
	}
	var newRole Role
	switch {
	case anyHot:
		newRole = RoleShedder
	case allCool:
		newRole = RoleReceiver
	default:
		newRole = RoleNeutral
	}
	if newRole != a.role {
		a.obs.Instant(a.node.Engine().Now(), obs.KindRoleFlip, obs.NoRef, int64(newRole), int64(a.role))
	}
	a.role = newRole
	if newRole == RoleReceiver {
		a.joinGroup()
	} else {
		a.leaveGroup()
	}
}

func (a *Agent) scribe() *scribe.Scribe { return a.agg.Scribe() }

func (a *Agent) joinGroup() {
	if a.inGroup {
		return
	}
	a.inGroup = true
	if a.onAnycast == nil {
		a.onAnycast = a.considerQuery
	}
	a.scribe().Join(lessLoadedKey, scribe.Handlers{OnAnycast: a.onAnycast})
}

func (a *Agent) leaveGroup() {
	if !a.inGroup {
		return
	}
	a.inGroup = false
	a.scribe().Leave(lessLoadedKey)
}

// considerQuery is the receiver-side acceptance check (§III.C step 3),
// evaluated for every tracked resource kind.
func (a *Agent) considerQuery(_ ids.Id, payload simnet.Message, _ pastry.NodeHandle) bool {
	q, ok := payload.(*shedQuery)
	if !ok {
		return false
	}
	if a.role != RoleReceiver || !a.haveMean {
		return false
	}
	srv := a.coord.cl.Server(a.server())
	thr := a.coord.cfg.Threshold
	// Bundle semantics: only borrow from the same customer's idle
	// instances on this server.
	if a.coord.cfg.SameCustomerOnly && !a.hasCustomerSlack(q.Customer, q.Demand) {
		return false
	}
	a.sweepLeases()
	for _, k := range a.coord.cfg.Kinds {
		cap := srv.Capacity.Get(k)
		if cap <= 0 {
			return false
		}
		// (1) Sufficient reserved capacity for the VM's guarantee.
		if srv.ReservedOf(k)+q.Reservation.Get(k) > cap {
			return false
		}
		// (2) Post-accept utilization stays under mean + threshold (the
		// oscillation guard).
		if (srv.DemandOf(k)+a.reserved.pendingOf(k)+q.Demand.Get(k))/cap > a.means[k]+thr {
			return false
		}
	}
	// One record per VM: a duplicate accept of a retried query refreshes
	// the existing hold instead of double-counting its demand.
	now := a.node.Engine().Now()
	if a.hold(q.VMID, q.Demand, now, now+a.coord.cfg.LeaseDuration) {
		a.reserveStats.Accepted++
		if a.obs.Enabled() {
			// Parent the hold to the any-cast walk that is asking right now,
			// completing the anycast -> lease causal link.
			a.reserved.get(q.VMID).trace = a.obs.Begin(now, obs.KindLease, a.scribe().ActiveAnycastTrace(), int64(q.VMID), 0)
		}
	} else {
		a.reserveStats.Renewed++
		if a.obs.Enabled() {
			a.obs.Instant(now, obs.KindLeaseRenew, a.reserved.get(q.VMID).trace, int64(q.VMID), 0)
		}
	}
	a.persistLeases()
	return true
}

// hasCustomerSlack reports whether this server hosts VMs of the customer
// whose purchased-but-unused capacity covers the incoming demand for every
// tracked kind.
func (a *Agent) hasCustomerSlack(customer string, demand cluster.Resources) bool {
	srv := a.coord.cl.Server(a.server())
	var reserved, used cluster.Resources
	found := false
	for _, vm := range srv.VMs() {
		if vm.Customer != customer {
			continue
		}
		found = true
		reserved = reserved.Add(vm.Reservation)
		used = used.Add(effectiveDemand(vm))
	}
	if !found {
		return false
	}
	for _, k := range a.coord.cfg.Kinds {
		if reserved.Get(k)-used.Get(k) < demand.Get(k) {
			return false
		}
	}
	return true
}

// rebalanceRound runs the shedder side: while over target, evacuate VMs one
// at a time through the any-cast group.
func (a *Agent) rebalanceRound() {
	if a.role != RoleShedder || !a.haveMean {
		return
	}
	a.shedChain(a.coord.cfg.MaxShedsPerRound)
}

// hottestKind returns the tracked kind with the largest projected overshoot
// (negative when nothing is over).
func (a *Agent) hottestKind() (cluster.Kind, float64) {
	best := a.coord.cfg.Kinds[0]
	bestOver := -1e18
	for _, k := range a.coord.cfg.Kinds {
		over := a.projectedUtilOf(k) - (a.means[k] + a.coord.cfg.Threshold)
		if over > bestOver {
			best, bestOver = k, over
		}
	}
	return best, bestOver
}

// projectedUtilOf is the utilization for one kind once committed
// evacuations leave.
func (a *Agent) projectedUtilOf(k cluster.Kind) float64 {
	srv := a.coord.cl.Server(a.server())
	cap := srv.Capacity.Get(k)
	if cap == 0 {
		return 0
	}
	demand := srv.DemandOf(k)
	for _, vm := range srv.VMs() {
		if a.isShedding(vm.ID) {
			demand -= vm.EffectiveDemand(k)
		}
	}
	return demand / cap
}

func (a *Agent) shedChain(budget int) {
	if budget <= 0 {
		return
	}
	// Stop condition: the paper's shedder stops once it falls back to the
	// average line; staying a strict improver avoids oscillation.
	hotKind, over := a.hottestKind()
	if over <= 0 {
		return
	}
	vm := a.pickVictim(hotKind)
	if vm == nil {
		return
	}
	// Cost-benefit gate (§V.B): do not even query for a move whose
	// predicted migration overhead exceeds the bandwidth it would recover.
	if an := a.coord.analyzer; an != nil {
		verdict := an.Analyze(costbenefit.Proposal{
			VM:            vm,
			DeliveredMbps: a.deliveredBW(vm),
		})
		if !verdict.Approved {
			a.vetoedByCost.Inc()
			return
		}
	}
	a.addShed(vm.ID)
	a.queriesSent.Inc()
	b := shuffleBanks.Of(a.node.Engine())
	q := b.queries.Take()
	*q = shedQuery{
		VMID:        vm.ID,
		Customer:    vm.Customer,
		Reservation: vm.Reservation,
		Demand:      effectiveDemand(vm),
	}
	q.readers.Set(1) // the exchange's
	ex := b.sheds.Take()
	*ex = shedExchange{a: a, vm: vm, q: q, demand: q.Demand, budget: budget, holds: 1}
	a.scribe().AnycastWith(lessLoadedKey, q, ex)
}

// shedExchange is one outbound shed from its query on: the any-cast's
// verdict, the migration's completion and the lease-renew timer are its
// methods, so a shed binds no closure. It comes from the shedder's engine's
// bank and goes back there once no role holds it. It holds a reader of its
// query until the verdict, as the any-cast's resends need; the walks and
// verdicts that carry the query hold their own, since an orphaned verdict may
// still carry it after the exchange is over.
type shedExchange struct {
	a      *Agent
	vm     *cluster.VM
	q      *shedQuery
	demand cluster.Resources
	by     pastry.NodeHandle
	budget int
	// holds counts the roles still to run: the verdict, then the completion
	// and the renew timer.
	holds int
}

// release drops one role, banking the exchange with the last.
func (ex *shedExchange) release() {
	if ex.holds--; ex.holds == 0 {
		b := shuffleBanks.Of(ex.a.node.Engine())
		*ex = shedExchange{}
		b.sheds.Put(ex)
	}
}

// AnycastDone implements scribe.AnycastCaller: the verdict on the query.
func (ex *shedExchange) AnycastDone(res scribe.AnycastResult) {
	defer ex.release()
	a, vm := ex.a, ex.vm
	ex.q.Release(a.node.Engine())
	ex.q = nil
	if !res.Accepted {
		a.dropShed(vm.ID)
		return // no receiver this round; retry next interval
	}
	dst := int(res.By.Addr)
	if e := a.shedEntry(vm.ID); e != nil {
		e.dest, e.haveDest = res.By, true
	}
	a.migrationsTriggered.Inc()
	ex.by = res.By
	// The migration span is parented to the any-cast that discovered the
	// receiver, completing the anycast -> lease -> migration chain.
	if err := a.coord.mig.MigrateTraced(a.obs, res.Trace, vm.ID, dst, ex); err != nil {
		a.dropShed(vm.ID)
		a.sendRelease(res.By, vm.ID)
		return
	}
	// Keep the receiver's lease alive for as long as the migration runs, so
	// a slow transfer is never reclaimed out from under a live exchange.
	ex.holds += 2
	a.node.Engine().AfterHandler(a.coord.cfg.LeaseDuration/3, ex)
	// Keep shedding within this round if still over target.
	a.shedChain(ex.budget - 1)
}

// MigrationDone implements migration.Done: the migration ended.
func (ex *shedExchange) MigrationDone(merr error) {
	a, vm := ex.a, ex.vm
	a.dropShed(vm.ID)
	// Whatever the outcome, release the receiver's hold: on success the
	// VM's demand now counts directly there; on failure (dead endpoint
	// included) nothing will arrive.
	a.sendRelease(ex.by, vm.ID)
	if cb := a.coord.onMigrated; cb != nil {
		cb(vm, merr)
	}
	ex.release()
}

// Fire implements sim.Handler: one lease renewal while the migration is in
// flight.
func (ex *shedExchange) Fire() {
	a, vm := ex.a, ex.vm.ID
	cur, live := a.shedDestOf(vm)
	if !live || cur.Id != ex.by.Id || !a.coord.mig.InFlight(vm) {
		ex.release()
		return
	}
	m := shuffleBanks.Of(a.node.Engine()).renews.Take()
	*m = renewMsg{VMID: vm, Demand: ex.demand}
	a.node.SendDirect(ex.by, AppName, m)
	a.node.Engine().AfterHandler(a.coord.cfg.LeaseDuration/3, ex)
}

// sendRelease starts the acknowledged release exchange: the message is
// idempotent at the receiver and resent with exponential backoff until the
// ack arrives or the retry budget is spent (the receiver's lease expiry is
// the backstop beyond that point).
func (a *Agent) sendRelease(to pastry.NodeHandle, vm cluster.VMID) {
	key := releaseKey{vm: vm, addr: to.Addr}
	if !a.awaiting(key) {
		if cap(a.releaseAwait) == 0 {
			a.releaseAwait = awaitLists.Of(a.node.Engine()).New()[:0]
		}
		a.releaseAwait = append(a.releaseAwait, key)
	}
	r := shuffleBanks.Of(a.node.Engine()).releases.Take()
	*r = releaseRetry{a: a, to: to, key: key, retriesLeft: releaseRetries, backoff: releaseRetryInterval}
	r.Fire()
}

// awaiting reports whether a release under key is still unacknowledged.
func (a *Agent) awaiting(key releaseKey) bool { return slices.Contains(a.releaseAwait, key) }

// unawait ends the wait for key's ack.
func (a *Agent) unawait(key releaseKey) {
	if i := slices.Index(a.releaseAwait, key); i >= 0 {
		a.releaseAwait = slices.Delete(a.releaseAwait, i, i+1)
	}
}

// releaseRetry is one chain of release sends, and the handler of its backoff
// timer. Chains of one key share its wait: the first ack, or the first chain
// to spend its budget, ends them all. It comes from the agent's engine's
// bank and goes back there when the chain stops.
type releaseRetry struct {
	a           *Agent
	to          pastry.NodeHandle
	key         releaseKey
	retriesLeft int
	backoff     time.Duration
}

// Fire implements sim.Handler: one send of the release, unless acknowledged.
func (r *releaseRetry) Fire() {
	a := r.a
	if !a.awaiting(r.key) {
		r.bank()
		return // acknowledged
	}
	m := shuffleBanks.Of(a.node.Engine()).rels.Take()
	*m = releaseMsg{VMID: r.key.vm}
	a.node.SendDirect(r.to, AppName, m)
	if r.retriesLeft <= 0 {
		a.unawait(r.key)
		r.bank()
		return
	}
	d := r.backoff
	r.retriesLeft--
	r.backoff *= 2
	a.node.Engine().AfterHandler(d, r)
}

func (r *releaseRetry) bank() {
	b := shuffleBanks.Of(r.a.node.Engine())
	*r = releaseRetry{}
	b.releases.Put(r)
}

// shuffleBank is an engine's banks of the shuffle's records and message
// shells. A record is banked on its agent's engine by whoever ends it (a
// migration completion runs on the root, while that engine is parked); a
// message shell by the agent that consumes it, or by the network on a drop
// (simnet.Recycler).
type shuffleBank struct {
	sheds    sim.Bank[shedExchange]
	queries  sim.Bank[shedQuery]
	releases sim.Bank[releaseRetry]
	rels     sim.Bank[releaseMsg]
	acks     sim.Bank[releaseAckMsg]
	renews   sim.Bank[renewMsg]
}

var (
	shuffleBanks = sim.NewLocal[shuffleBank]()
	// shedLists, holdLists, awaitLists and releaseLists carve an agent's
	// first backing of its sheds, holds, unacknowledged releases and
	// released-VM history: an agent's first shed, hold or release costs a
	// chunk's share of an allocation.
	shedLists    = sim.NewLocal[sim.Slab[[4]shedState]]()
	holdLists    = sim.NewLocal[sim.Slab[[4]reservation]]()
	awaitLists   = sim.NewLocal[sim.Slab[[2]releaseKey]]()
	releaseLists = sim.NewLocal[sim.Slab[[8]cluster.VMID]]()
)

// OrphanAccepted implements scribe.OrphanAcceptor: it releases reservations
// made for accepts the any-cast layer had already given up on — a verdict
// that arrived after the timeout, or a duplicate accept from a retried
// query. Without this, the receiver would hold the reservation until its
// lease expired.
func (a *Agent) OrphanAccepted(_ ids.Id, payload simnet.Message, by pastry.NodeHandle) {
	q, ok := payload.(*shedQuery)
	if !ok {
		return
	}
	if dst, live := a.shedDestOf(q.VMID); live && dst.Id == by.Id {
		// The live exchange's own release arrives at migration end; a
		// duplicate accept only refreshed the same per-VM hold.
		return
	}
	a.reserveStats.OrphanReleases++
	a.sendRelease(by, q.VMID)
}

var _ scribe.OrphanAcceptor = (*Agent)(nil)

// effectiveDemand builds the VM's per-kind effective demand vector.
func effectiveDemand(vm *cluster.VM) cluster.Resources {
	var d cluster.Resources
	for _, k := range cluster.AllKinds {
		d = d.Set(k, vm.EffectiveDemand(k))
	}
	return d
}

// AppendClasses appends one tc class per VM hosted on srv, in VM-id order.
func AppendClasses(buf []tcshape.Class, srv *cluster.Server) []tcshape.Class {
	for _, vm := range srv.VMs() {
		buf = append(buf, tcshape.Class{
			Rate:   vm.Reservation.BandwidthMbps,
			Ceil:   vm.Limit.BandwidthMbps,
			Demand: vm.Demand.BandwidthMbps,
		})
	}
	return buf
}

// deliveredBW runs the server's tc shaper to find how much bandwidth the
// VM actually receives right now (the cost-benefit baseline).
func (a *Agent) deliveredBW(vm *cluster.VM) float64 {
	srv := a.coord.cl.Server(a.server())
	vms := srv.VMs()
	idx := slices.IndexFunc(vms, func(v *cluster.VM) bool { return v.ID == vm.ID })
	if idx < 0 {
		return 0
	}
	classes := AppendClasses(make([]tcshape.Class, 0, len(vms)), srv)
	return tcshape.Allocate(srv.Capacity.BandwidthMbps, classes)[idx]
}

// pickVictim selects the evacuation candidate: the hosted VM with the
// largest effective demand in the hottest kind, not already committed
// (moving the biggest load first needs the fewest migrations).
func (a *Agent) pickVictim(k cluster.Kind) *cluster.VM {
	srv := a.coord.cl.Server(a.server())
	var best *cluster.VM
	for _, vm := range srv.VMs() {
		if a.isShedding(vm.ID) || a.coord.mig.InFlight(vm.ID) {
			continue
		}
		if vm.EffectiveDemand(k) <= 0 {
			continue
		}
		if best == nil || vm.EffectiveDemand(k) > best.EffectiveDemand(k) {
			best = vm
		}
	}
	return best
}

// HandleDirect implements pastry.App for the release/renew protocol.
func (a *Agent) HandleDirect(from pastry.NodeHandle, payload simnet.Message) {
	switch m := payload.(type) {
	case *releaseMsg:
		a.sweepLeases()
		var leaseTrace obs.Ref
		granted := time.Duration(-1)
		if e := a.reserved.get(m.VMID); e != nil {
			leaseTrace = e.trace
			granted = e.granted
		}
		switch {
		case a.reserved.release(m.VMID):
			a.reserveStats.Released++
			now := a.node.Engine().Now()
			a.leaseHold.RecordDuration(now - granted)
			a.obs.End(now, obs.KindLease, leaseTrace, int64(m.VMID), 0)
			a.rememberRelease(m.VMID)
			a.persistLeases()
		case a.wasReleased(m.VMID):
			a.reserveStats.DuplicateRelease++
		default:
			a.reserveStats.UnknownRelease++
		}
		// Always acknowledge, duplicates included: the shedder retries
		// until it hears this, and the operation is idempotent.
		ack := shuffleBanks.Of(a.node.Engine()).acks.Take()
		*ack = releaseAckMsg{VMID: m.VMID}
		a.node.SendDirect(from, AppName, ack)
		m.Recycle(a.node.Engine())
	case *releaseAckMsg:
		a.unawait(releaseKey{vm: m.VMID, addr: from.Addr})
		m.Recycle(a.node.Engine())
	case *renewMsg:
		a.sweepLeases()
		// Upsert rather than refresh-if-present: a renew that raced with
		// expiry restores the hold, demand vector and all.
		now := a.node.Engine().Now()
		if a.hold(m.VMID, m.Demand, now, now+a.coord.cfg.LeaseDuration) {
			a.reserveStats.Accepted++
			if a.obs.Enabled() {
				// A renew that restored a lapsed hold opens a fresh span:
				// the original closed when it expired.
				a.reserved.get(m.VMID).trace = a.obs.Begin(now, obs.KindLease, obs.NoRef, int64(m.VMID), 0)
			}
		} else {
			a.reserveStats.Renewed++
			if a.obs.Enabled() {
				a.obs.Instant(now, obs.KindLeaseRenew, a.reserved.get(m.VMID).trace, int64(m.VMID), 0)
			}
		}
		a.persistLeases()
		m.Recycle(a.node.Engine())
	}
}

// releaseHistory bounds how many released VM ids an agent remembers for
// duplicate detection.
const releaseHistory = 64

func (a *Agent) rememberRelease(vm cluster.VMID) {
	if cap(a.recentReleases) == 0 {
		a.recentReleases = releaseLists.Of(a.node.Engine()).New()[:0]
	}
	if len(a.recentReleases) == releaseHistory {
		// Forget the oldest in place: the backing keeps its capacity.
		copy(a.recentReleases, a.recentReleases[1:])
		a.recentReleases = a.recentReleases[:releaseHistory-1]
	}
	a.recentReleases = append(a.recentReleases, vm)
}

// hold installs or refreshes vm's reservation (reservationTable.upsert); the
// table's first backing is carved from the engine's slab.
func (a *Agent) hold(vm cluster.VMID, demand cluster.Resources, granted, expires time.Duration) bool {
	if cap(a.reserved.entries) == 0 {
		a.reserved.entries = holdLists.Of(a.node.Engine()).New()[:0]
	}
	return a.reserved.upsert(vm, demand, granted, expires)
}

func (a *Agent) wasReleased(vm cluster.VMID) bool {
	for _, id := range a.recentReleases {
		if id == vm {
			return true
		}
	}
	return false
}

var _ pastry.App = (*Agent)(nil)

// shedQuery is the load-balance query the shedder any-casts (§III.C step 1).
// It is a scribe.SharedPayload: its exchange and every walk and verdict that
// carries it hold a reader, and whoever drops the last banks it on the
// shuffle bank of its own engine.
type shedQuery struct {
	readers     sim.Readers
	VMID        cluster.VMID
	Customer    string
	Reservation cluster.Resources
	Demand      cluster.Resources
}

// WireSize implements simnet.WireSizer.
func (q *shedQuery) WireSize() int { return 8 + len(q.Customer) + 2*3*8 }

// Hold implements scribe.SharedPayload.
func (q *shedQuery) Hold() { q.readers.Add() }

// Release implements scribe.SharedPayload.
func (q *shedQuery) Release(e *sim.Engine) {
	if q.readers.Drop() {
		shuffleBanks.Of(e).queries.Put(q)
	}
}

// releaseMsg tells a receiver to stop holding resources for a VM. It is
// idempotent and resent until acknowledged; the per-VM reservation record
// at the receiver carries the demand, so the message only names the VM.
type releaseMsg struct {
	VMID cluster.VMID
}

// WireSize implements simnet.WireSizer.
func (releaseMsg) WireSize() int { return 8 }

// Recycle implements simnet.Recycler: the receiver consumed the release, or
// the network dropped it, on engine e's goroutine.
func (m *releaseMsg) Recycle(e *sim.Engine) { shuffleBanks.Of(e).rels.Put(m) }

// releaseAckMsg confirms a release was processed (duplicates included).
type releaseAckMsg struct {
	VMID cluster.VMID
}

// WireSize implements simnet.WireSizer.
func (releaseAckMsg) WireSize() int { return 8 }

// Recycle implements simnet.Recycler, as releaseMsg's does.
func (m *releaseAckMsg) Recycle(e *sim.Engine) { shuffleBanks.Of(e).acks.Put(m) }

// renewMsg refreshes the receiver's lease while the VM is in flight. It
// carries the demand vector so a hold lost to a premature expiry is
// restored whole.
type renewMsg struct {
	VMID   cluster.VMID
	Demand cluster.Resources
}

// WireSize implements simnet.WireSizer.
func (renewMsg) WireSize() int { return 8 + 3*8 }

// Recycle implements simnet.Recycler, as releaseMsg's does.
func (m *renewMsg) Recycle(e *sim.Engine) { shuffleBanks.Of(e).renews.Put(m) }
