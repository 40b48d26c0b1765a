package placement

import (
	"vbundle/internal/cluster"
	"vbundle/internal/ids"
	"vbundle/internal/pastry"
)

// poisonVM is a VM ID no cluster issues, and poisonHandle a node no ring has.
const poisonVM cluster.VMID = -1

var (
	poisonHandle = pastry.NodeHandle{Id: ids.New(^uint64(0), ^uint64(0)), Addr: -2}
)

// Poison overwrites what the engine banks, for sim.CheckPoisoned: every
// banked envelope (bootQuery.Poison) and every backing its pools bank,
// filled with values no query carries. A test of a layer above hands the
// engine to Watch; it returns how many records and backings it filled.
func (d *DHT) Poison(stamp uint64) int {
	b := &d.backings
	return d.envelopes.Poison(stamp) + b.vms.Poison(poisonVM) + b.ints.Poison(-3) +
		b.addrs.Poison(-2) + b.keys.Poison(^uint32(0))
}

// Poison overwrites a banked envelope (sim.PoisonEach): every header field
// a taker writes with a value no query holds, minus the stamp as the
// sequence number, and every backing filled to its capacity with values no
// query carries and left empty, as a taker appends to it. It keeps what the
// bank and the idle cut read — the backings themselves, the visited table,
// which a banked envelope holds empty, and the banked and outgrown marks.
func (q *bootQuery) Poison(stamp uint64) (twice bool) {
	twice = q.Seq == -stamp
	vms, servers, hops := q.VMs[:cap(q.VMs)], q.Servers[:cap(q.Servers)], q.HopsAt[:cap(q.HopsAt)]
	for i := range vms {
		vms[i] = poisonVM
	}
	for i := range servers {
		servers[i] = -3
	}
	for i := range hops {
		hops[i] = -3
	}
	stops, list := q.Stops[:cap(q.Stops)], q.Visited.list[:cap(q.Visited.list)]
	for i := range stops {
		stops[i] = -2
	}
	for i := range list {
		list[i] = ^uint32(0)
	}
	*q = bootQuery{
		Seq:       -stamp,
		Customer:  "poisoned",
		Key:       poisonHandle.Id,
		VMs:       q.VMs[:0],
		Servers:   q.Servers[:0],
		HopsAt:    q.HopsAt[:0],
		Origin:    poisonHandle,
		Home:      poisonHandle,
		Routed:    true,
		Done:      true,
		Spill:     -1,
		Visited:   visitedSet{list: q.Visited.list[:0], slots: q.Visited.slots, shift: q.Visited.shift},
		Stops:     q.Stops[:0],
		stop:      -1,
		Resumed:   true,
		Detour:    -1,
		RouteHops: -1,
		Wasted:    -1,
		banked:    true,
		outgrown:  q.outgrown,
	}
	return twice
}
