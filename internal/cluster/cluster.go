// Package cluster models the physical and virtual machines of a v-Bundle
// datacenter: servers with fixed capacities hosting VMs described by the
// paper's reservation/limit tuples (§III.B).
//
// Reservation is the guaranteed minimum a VM may power on with — admission
// control only admits a VM when the sum of reservations stays within server
// capacity. Limit is the ceiling a VM may burst to when its workload grows;
// demand between reservation and limit is served only when the server has
// slack (the tcshape package computes the actual shares).
package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"vbundle/internal/ids"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

// Resources is a bundle of the three resources v-Bundle schedules. All
// fields are non-negative.
type Resources struct {
	// CPU is in fractional cores.
	CPU float64
	// MemMB is in megabytes.
	MemMB float64
	// BandwidthMbps is the network resource the paper focuses on.
	BandwidthMbps float64
}

// Add returns the component-wise sum.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.CPU + o.CPU, r.MemMB + o.MemMB, r.BandwidthMbps + o.BandwidthMbps}
}

// Fits reports whether every component of r is at most the matching
// component of capacity.
func (r Resources) Fits(capacity Resources) bool {
	return r.CPU <= capacity.CPU && r.MemMB <= capacity.MemMB && r.BandwidthMbps <= capacity.BandwidthMbps
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// VMID uniquely identifies a VM within a cluster.
type VMID int

// VM is one virtual machine instance. Reservation and Limit are fixed at
// creation (the purchased package); Demand changes as the hosted workload
// varies.
type VM struct {
	ID       VMID
	Customer string
	// Key is hash(customer): the placement key shared by all of the
	// customer's VMs (paper §II.B).
	Key         ids.Id
	Reservation Resources
	Limit       Resources
	// Demand is the offered load. Write it directly only before the VM is
	// placed; once it is, change its bandwidth through
	// Cluster.SetDemandBW, which marks the hosting server's cached sums
	// stale. A direct write after placement leaves them stale, and the
	// auditor's demand-ledger check reports it.
	Demand Resources
}

// EffectiveDemandBW is the bandwidth the VM would consume if unconstrained
// by its server: its demand capped by its limit.
func (v *VM) EffectiveDemandBW() float64 {
	return minF(v.Demand.BandwidthMbps, v.Limit.BandwidthMbps)
}

// Server is one physical machine.
type Server struct {
	Index    int
	Capacity Resources
	// vms holds the hosted VMs sorted by ID. Keeping a sorted slice rather
	// than a map makes every per-server sum fold in a fixed order, so
	// repeated runs produce bit-identical floating-point results.
	vms []*VM
	// gen counts the changes to what is derived from vms: Admit, Remove
	// and a Cluster.SetDemandBW that changes a hosted VM's bandwidth
	// demand each bump it. Anything cached from the VM list is current
	// while its recorded gen equals this one (core's bandwidth ledger is
	// keyed on it). Reservations are not cached: Reserved() is read from
	// a migration source's shard about the destination, which would make
	// a fill there a race.
	gen uint32
	// bwGen is the gen bwSum was filled at, and bwSum the effective
	// bandwidth demand then. DemandBW fills it on read when stale, always
	// as a full re-sum in VM-id order, so it holds the bits the loop
	// would give. Filled on read, not on write: a caller may write Demand
	// straight after Place while seeding, and nothing reads the sum before
	// seeding ends.
	//
	// Who may fill: in shard context only the server's own agent reads
	// it (the rebalance agent's utilizationOf, publishLocal, considerQuery
	// and projectedUtilOf, all on the server's shard); every other reader
	// runs in the serial band. A reader on another server's shard would
	// make the fill a race.
	bwGen uint32
	bwSum float64
}

// find locates id in the sorted vms slice, returning its position (or the
// insertion point) and whether it is present.
func (s *Server) find(id VMID) (int, bool) {
	i := sort.Search(len(s.vms), func(i int) bool { return s.vms[i].ID >= id })
	return i, i < len(s.vms) && s.vms[i].ID == id
}

// Reserved returns the sum of reservations of hosted VMs.
func (s *Server) Reserved() Resources {
	var sum Resources
	for _, vm := range s.vms {
		sum = sum.Add(vm.Reservation)
	}
	return sum
}

// CanAdmit reports whether the VM's reservation still fits: the paper's
// power-on admission rule.
func (s *Server) CanAdmit(vm *VM) bool { return s.CanAdmitOnTop(s.Reserved(), vm) }

// CanAdmitOnTop is CanAdmit for a caller that already holds the server's
// Reserved() sum and tests several VMs against it (a batched boot query
// arriving at a full server). reserved must be current: take it again after
// anything is admitted or removed. Admit re-checks on its own, so a stale
// sum can fail a placement but never over-commit the server.
func (s *Server) CanAdmitOnTop(reserved Resources, vm *VM) bool {
	return reserved.Add(vm.Reservation).Fits(s.Capacity)
}

// Admit places the VM on the server, enforcing the reservation rule.
func (s *Server) Admit(vm *VM) error { return s.admit(vm, nil) }

// admit is Admit; a full VM list grows into a backing from spares when it
// is non-nil (the cluster's pool), by append otherwise.
func (s *Server) admit(vm *VM, spares *vmSpares) error {
	i, dup := s.find(vm.ID)
	if dup {
		return fmt.Errorf("cluster: vm %d already on server %d", vm.ID, s.Index)
	}
	if !s.CanAdmit(vm) {
		return fmt.Errorf("cluster: server %d cannot reserve %+v for vm %d", s.Index, vm.Reservation, vm.ID)
	}
	if spares != nil && len(s.vms) == cap(s.vms) {
		s.vms = spares.grow(s.vms)
	}
	s.vms = append(s.vms, nil)
	copy(s.vms[i+1:], s.vms[i:])
	s.vms[i] = vm
	s.gen++
	return nil
}

// Remove takes the VM off the server; it reports whether it was present.
func (s *Server) Remove(id VMID) bool {
	i, ok := s.find(id)
	if !ok {
		return false
	}
	s.vms = append(s.vms[:i], s.vms[i+1:]...)
	s.gen++
	return true
}

// NumVMs returns the number of hosted VMs.
func (s *Server) NumVMs() int { return len(s.vms) }

// VMs returns the hosted VMs sorted by ID. The returned slice is the
// server's own storage: callers must not modify it or retain it across
// Admit/Remove calls.
func (s *Server) VMs() []*VM { return s.vms }

// Generation returns the server's change count: it moves whenever the VM
// set or a hosted VM's bandwidth demand changes (see Server.gen).
func (s *Server) Generation() uint32 { return s.gen }

// DemandBW returns the total effective bandwidth demand on this server.
// It re-sums the VMs only when one was admitted, removed or given a new
// demand since the last call (see Server.bwSum for who may call it).
func (s *Server) DemandBW() float64 {
	if s.bwGen != s.gen {
		var sum float64
		for _, vm := range s.vms {
			sum += vm.EffectiveDemandBW()
		}
		s.bwSum, s.bwGen = sum, s.gen
	}
	return s.bwSum
}

// CachedDemandBW returns the cached bandwidth-demand sum and whether it is
// current, without filling it: the auditor's read.
func (s *Server) CachedDemandBW() (sum float64, clean bool) { return s.bwSum, s.bwGen == s.gen }

// UtilizationBW returns effective demand over NIC capacity; values above 1
// mean the server is over-committed on bandwidth.
func (s *Server) UtilizationBW() float64 {
	if s.Capacity.BandwidthMbps == 0 {
		return 0
	}
	return s.DemandBW() / s.Capacity.BandwidthMbps
}

// The VM arena grows in blocks that are allocated full-capacity and only
// ever extended in place, so they never reallocate and a *VM stays where it
// is while its VM lives. Block sizes double from vmChunkMin up to
// vmChunkMax and stay there: small experiments (Fig. 12's 225 VMs) pay for
// a 256-slot block instead of a 4096-slot one, while large ones still get
// the flat-arena economics.
const (
	vmChunkMin = 256
	vmChunkMax = 4096
	// vmGeomChunks doubling blocks (256,512,1024,2048) cover the first
	// vmGeomSlots slots; every block after them is vmChunkMax slots.
	vmGeomChunks = 4 // log2(vmChunkMax/vmChunkMin)
	vmGeomSlots  = vmChunkMin * ((1 << vmGeomChunks) - 1)
)

// vmChunkIndex maps a zero-based registry slot to its (chunk, offset) pair.
// Inside the doubling region the chunk is found from the slot's magnitude:
// slot i sits in doubling block j iff i/vmChunkMin+1 has j+1 bits.
func vmChunkIndex(i int) (ci, off int) {
	if i < vmGeomSlots {
		j := bits.Len(uint(i/vmChunkMin+1)) - 1
		return j, i - vmChunkMin*((1<<j)-1)
	}
	r := i - vmGeomSlots
	return vmGeomChunks + r/vmChunkMax, r % vmChunkMax
}

// vmChunkCap is the fixed capacity of chunk ci.
func vmChunkCap(ci int) int {
	if ci < vmGeomChunks {
		return vmChunkMin << ci
	}
	return vmChunkMax
}

// Cluster is the set of servers of one datacenter plus the VM registry.
//
// VM records live in a chunked arena (vmArena) and are found through their
// sequential ID, so the registry is index arithmetic instead of a map: at
// experiment scale (hundreds of thousands of VMs) this removes per-VM heap
// objects and hashing from every lookup. A destroyed VM's arena slot goes on
// a free list and the next CreateVM takes it, so the arena holds the peak
// live count, not every VM ever booted; what a VM ever booted costs is its
// entry in slots, 4 bytes. IDs stay sequential and are never reused, so a
// holder of a VMID finds a destroyed VM gone (VM returns nil), never another
// one. A *VM is valid only until its VM is destroyed: whoever holds one
// across an event keeps the VMID instead and looks the record up again.
type Cluster struct {
	topo    *topology.Topology
	servers []*Server
	// slots[id-1] is the arena slot of the VM with that ID, or -1 once the
	// VM is destroyed.
	slots  []int32
	arena  vmArena
	nVMs   int // live (non-destroyed) VM count
	nextID VMID
	// keyCustomer and key are the last customer CreateVM hashed and its
	// key (zero before the first): a group boot, or a run of one customer's
	// VMs, hashes once.
	keyCustomer string
	key         ids.Id
	// onServerChange, when set, fires after every placement mutation with
	// each server whose VM set changed (destination then source for a
	// migration). The durability layer checkpoints per-server placement
	// maps here.
	onServerChange func(server int)
	// spares is where a server's full VM list finds its next backing.
	spares vmSpares
}

// vmArena holds the VM records in the blocks vmChunkIndex lays out, a slot
// each, and the slots destroyed VMs left. Bookkeeping that changes at a
// different rate than the record itself (placement) is kept in parallel
// blocks rather than inside VM.
type vmArena struct {
	chunks [][]VM
	// locs[ci][off] is the server hosting the VM in the slot at (ci, off),
	// or -1 while it is unplaced or the slot is free.
	locs  [][]int32
	slots int // slots made
	// free lists the slots of destroyed VMs, the last freed on top.
	free []int32
}

// at returns the record in slot s.
func (a *vmArena) at(s int32) *VM {
	ci, off := vmChunkIndex(int(s))
	return &a.chunks[ci][off]
}

// loc returns the location of the VM in slot s.
func (a *vmArena) loc(s int32) *int32 {
	ci, off := vmChunkIndex(int(s))
	return &a.locs[ci][off]
}

// take returns a slot for a new VM: the last freed, or a new one at the end
// of the arena.
func (a *vmArena) take() int32 {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		return s
	}
	s := a.slots
	a.slots++
	ci, _ := vmChunkIndex(s)
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]VM, 0, vmChunkCap(ci)))
		a.locs = append(a.locs, make([]int32, 0, vmChunkCap(ci)))
	}
	a.chunks[ci] = a.chunks[ci][:len(a.chunks[ci])+1]
	a.locs[ci] = append(a.locs[ci], -1)
	return int32(s)
}

// put frees slot s of an unplaced VM for the next take.
func (a *vmArena) put(s int32) { a.free = append(a.free, s) }

// vmSpares hands a server's full VM list a backing of twice its capacity,
// from a sim.Pool, and banks the one the list leaves. Servers that grow at
// once, as a serving stream's rendezvous servers do, take the backings the
// ones before them left and carve the rest from the pool's slab chunks: an
// allocation a chunk, not one a list growth. Placements on two shards may
// grow lists at once, hence the lock; which backing a list gets never shows
// in what it holds.
type vmSpares struct {
	mu   sync.Mutex
	pool sim.Pool[*VM]
}

// grow returns a backing of twice vms' capacity (at least 1) holding vms,
// and banks vms' own backing. A list Server.Admit grew by append past a
// power of two is left to the collector.
func (p *vmSpares) grow(vms []*VM) []*VM {
	p.mu.Lock()
	defer p.mu.Unlock()
	grown := append(p.pool.Get(2*cap(vms)), vms...)
	if old := cap(vms); old > 0 && old&(old-1) == 0 {
		p.pool.Put(vms)
	}
	return grown
}

// OnServerChange installs the hook observing placement-map mutations; fn is
// called once per affected server after the change lands. Set it before any
// placements happen (or immediately snapshot existing servers).
func (c *Cluster) OnServerChange(fn func(server int)) { c.onServerChange = fn }

func (c *Cluster) serverChanged(server int) {
	if c.onServerChange != nil && server >= 0 {
		c.onServerChange(server)
	}
}

// New creates a cluster with one server per topology slot, each with the
// given capacity. A zero-bandwidth capacity defaults to the topology's NIC
// line rate.
func New(topo *topology.Topology, perServer Resources) *Cluster {
	if perServer.BandwidthMbps == 0 {
		perServer.BandwidthMbps = topo.NICMbps()
	}
	c := &Cluster{
		topo:    topo,
		servers: make([]*Server, topo.Servers()),
	}
	// One slice for all the servers: an allocation a cluster, not one a
	// server.
	servers := make([]Server, len(c.servers))
	for i := range servers {
		servers[i] = Server{Index: i, Capacity: perServer}
		c.servers[i] = &servers[i]
	}
	return c
}

// Topology returns the cluster's network topology.
func (c *Cluster) Topology() *topology.Topology { return c.topo }

// Size returns the number of servers.
func (c *Cluster) Size() int { return len(c.servers) }

// Server returns server i.
func (c *Cluster) Server(i int) *Server { return c.servers[i] }

// Servers returns all servers; the slice is shared, do not mutate.
func (c *Cluster) Servers() []*Server { return c.servers }

// CreateVM registers a new, unplaced VM for the customer. Reservation must
// fit within limit component-wise. The record returned is the VM's until it
// is destroyed, when the next CreateVM may reuse it: hold the ID across
// events, not the record.
func (c *Cluster) CreateVM(customer string, reservation, limit Resources) (*VM, error) {
	if !reservation.Fits(limit) {
		return nil, fmt.Errorf("cluster: reservation %+v exceeds limit %+v", reservation, limit)
	}
	if customer != c.keyCustomer || c.key == ids.Zero {
		c.keyCustomer, c.key = customer, ids.HashString(customer)
	}
	c.nextID++
	slot := c.arena.take()
	c.slots = append(c.slots, slot)
	vm := c.arena.at(slot)
	*vm = VM{
		ID:          c.nextID,
		Customer:    customer,
		Key:         c.key,
		Reservation: reservation,
		Limit:       limit,
	}
	*c.arena.loc(slot) = -1
	c.nVMs++
	return vm, nil
}

// VM returns the VM with the given id, or nil once it is destroyed or when
// the id was never issued.
func (c *Cluster) VM(id VMID) *VM {
	if s := c.slot(id); s >= 0 {
		return c.arena.at(s)
	}
	return nil
}

// eachVM calls fn for every live VM in ID order: a walk of the slot index,
// 4 bytes an ID ever issued.
func (c *Cluster) eachVM(fn func(*VM)) {
	for _, s := range c.slots {
		if s >= 0 {
			fn(c.arena.at(s))
		}
	}
}

// NumVMs returns the number of registered (non-destroyed) VMs.
func (c *Cluster) NumVMs() int { return c.nVMs }

// EachVM calls fn for every live VM in ID order — a read-only walk.
// The online auditor uses it to cross-check the location map against the
// per-server VM lists.
func (c *Cluster) EachVM(fn func(*VM)) { c.eachVM(fn) }

// slot returns the arena slot of id, or -1 when the id was never issued or
// the VM is destroyed.
func (c *Cluster) slot(id VMID) int32 {
	i := int(id) - 1
	if i < 0 || i >= len(c.slots) {
		return -1
	}
	return c.slots[i]
}

// Place admits the VM on the given server; the VM must not be placed yet.
func (c *Cluster) Place(vm *VM, server int) error {
	i := c.slot(vm.ID)
	if i < 0 {
		return fmt.Errorf("cluster: vm %d is not registered", vm.ID)
	}
	loc := c.arena.loc(i)
	if *loc >= 0 {
		return fmt.Errorf("cluster: vm %d already placed on server %d", vm.ID, *loc)
	}
	if err := c.servers[server].admit(vm, &c.spares); err != nil {
		return err
	}
	*loc = int32(server)
	c.serverChanged(server)
	return nil
}

// Migrate moves a placed VM to another server, enforcing admission at the
// destination. On failure the VM stays where it was.
func (c *Cluster) Migrate(id VMID, to int) error {
	i := c.slot(id)
	if i < 0 || *c.arena.loc(i) < 0 {
		return fmt.Errorf("cluster: vm %d is not placed", id)
	}
	loc := c.arena.loc(i)
	from := int(*loc)
	if from == to {
		return nil
	}
	if err := c.servers[to].admit(c.arena.at(i), &c.spares); err != nil {
		return err
	}
	c.servers[from].Remove(id)
	*loc = int32(to)
	c.serverChanged(to)
	c.serverChanged(from)
	return nil
}

// Unplace evicts a placed VM from its server without destroying it: the VM
// stays registered and can be placed again. It reports the server whose
// capacity it freed; ok is false when the VM is unknown or was not placed.
func (c *Cluster) Unplace(id VMID) (server int, ok bool) {
	i := c.slot(id)
	if i < 0 || *c.arena.loc(i) < 0 {
		return -1, false
	}
	loc := c.arena.loc(i)
	server = int(*loc)
	c.servers[server].Remove(id)
	*loc = -1
	c.serverChanged(server)
	return server, true
}

// Destroy removes a VM entirely: off its server (if placed) and out of the
// registry. Destroying an unknown id is a no-op; it reports whether the VM
// existed. The VM's arena slot goes on the free list, for the next CreateVM.
func (c *Cluster) Destroy(id VMID) bool {
	_, existed := c.Terminate(id)
	return existed
}

// Terminate is Destroy for the serving layer's terminate path: it
// additionally reports which server's capacity the VM freed (-1 when the VM
// was never placed), so callers can attribute the release without a second
// lookup.
func (c *Cluster) Terminate(id VMID) (server int, existed bool) {
	i := c.slot(id)
	if i < 0 {
		return -1, false
	}
	server = -1
	if loc := c.arena.loc(i); *loc >= 0 {
		server = int(*loc)
		c.servers[server].Remove(id)
		*loc = -1
	}
	c.slots[id-1] = -1
	c.arena.put(i)
	c.nVMs--
	c.serverChanged(server)
	return server, true
}

// LocationOf returns the server hosting the VM.
func (c *Cluster) LocationOf(id VMID) (server int, placed bool) {
	i := c.slot(id)
	if i < 0 || *c.arena.loc(i) < 0 {
		return 0, false
	}
	return int(*c.arena.loc(i)), true
}

// VMsOf returns the customer's VMs sorted by ID (the slot-index walk is
// already in ID order).
func (c *Cluster) VMsOf(customer string) []*VM {
	var out []*VM
	c.eachVM(func(vm *VM) {
		if vm.Customer == customer {
			out = append(out, vm)
		}
	})
	return out
}

// Customers returns the distinct customer names, sorted.
func (c *Cluster) Customers() []string {
	seen := make(map[string]bool)
	c.eachVM(func(vm *VM) { seen[vm.Customer] = true })
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SetDemandBW sets the VM's bandwidth demand: the one writer of a placed
// VM's demand. A value with new bits marks the hosting server changed; the
// same bits change nothing, so a flat generator's refresh dirties no
// server.
func (c *Cluster) SetDemandBW(vm *VM, mbps float64) {
	if math.Float64bits(vm.Demand.BandwidthMbps) == math.Float64bits(mbps) {
		return
	}
	vm.Demand.BandwidthMbps = mbps
	if i := c.slot(vm.ID); i >= 0 && *c.arena.loc(i) >= 0 {
		c.servers[*c.arena.loc(i)].gen++
	}
}

// TotalDemandBW sums effective bandwidth demand across all servers.
func (c *Cluster) TotalDemandBW() float64 {
	var sum float64
	for _, s := range c.servers {
		sum += s.DemandBW()
	}
	return sum
}

// TotalCapacityBW sums NIC capacity across all servers.
func (c *Cluster) TotalCapacityBW() float64 {
	var sum float64
	for _, s := range c.servers {
		sum += s.Capacity.BandwidthMbps
	}
	return sum
}

// MeanUtilizationBW is cluster demand over cluster capacity: the "average
// utilization line" of paper Fig. 5.
func (c *Cluster) MeanUtilizationBW() float64 {
	capTotal := c.TotalCapacityBW()
	if capTotal == 0 {
		return 0
	}
	return c.TotalDemandBW() / capTotal
}

// UtilizationSnapshot returns every server's bandwidth utilization, indexed
// by server (the scatter of paper Fig. 9).
func (c *Cluster) UtilizationSnapshot() []float64 {
	out := make([]float64, len(c.servers))
	for i, s := range c.servers {
		out[i] = s.UtilizationBW()
	}
	return out
}
