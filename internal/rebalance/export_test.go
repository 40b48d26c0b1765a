package rebalance

import (
	"math"

	"vbundle/internal/cluster"
	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

var (
	poisonHandle = pastry.NodeHandle{Id: ids.New(^uint64(0), ^uint64(0)), Addr: simnet.Addr(0)}
	poisonDemand = cluster.Resources{CPU: math.NaN(), MemMB: math.NaN(), BandwidthMbps: math.NaN()}
)

// poisonStamp numbers the PoisonBanked calls; a call writes its stamp into
// every record it poisons, so meeting the stamp again in one call means a
// record was banked twice.
var poisonStamp int

// PoisonBanked overwrites every shed exchange, shed query, release chain and
// release, ack and renew shell banked on e's shuffle bank with garbage: nil
// agent, VM and query, NaN demands and reservations, a handle of all ones, a
// customer no VM has, negative budgets and VM ids. A
// record or shell is banked once nothing reads it any more, so poisoning the
// banks between any two events must change nothing a run computes. It
// returns how many it poisoned, and panics on one banked twice.
func PoisonBanked(e *sim.Engine) (n int) {
	poisonStamp++
	stamp := -poisonStamp
	vm := cluster.VMID(stamp)
	twice := func() { panic("rebalance: a record is banked twice") }
	b := shuffleBanks.Of(e)
	for _, ex := range b.sheds.Banked() {
		if ex.budget == stamp {
			twice()
		}
		*ex = shedExchange{demand: poisonDemand, by: poisonHandle, budget: stamp, holds: stamp}
		n++
	}
	for _, q := range b.queries.Banked() {
		if q.VMID == vm {
			twice()
		}
		*q = shedQuery{VMID: vm, Customer: "poisoned", Reservation: poisonDemand, Demand: poisonDemand}
		n++
	}
	for _, r := range b.releases.Banked() {
		if r.retriesLeft == stamp {
			twice()
		}
		*r = releaseRetry{to: poisonHandle, key: releaseKey{vm: vm, addr: poisonHandle.Addr}, retriesLeft: stamp, backoff: -1}
		n++
	}
	for _, m := range b.rels.Banked() {
		if m.VMID == vm {
			twice()
		}
		m.VMID = vm
		n++
	}
	for _, m := range b.acks.Banked() {
		if m.VMID == vm {
			twice()
		}
		m.VMID = vm
		n++
	}
	for _, m := range b.renews.Banked() {
		if m.VMID == vm {
			twice()
		}
		*m = renewMsg{VMID: vm, Demand: poisonDemand}
		n++
	}
	return n
}
