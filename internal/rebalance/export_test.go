package rebalance

import (
	"math"

	"vbundle/internal/cluster"
	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/simnet"
)

// A poisoned record or shell (sim.CheckPoisoned) holds a nil agent, VM and
// query, NaN demands and reservations, a handle of all ones, a customer no
// VM has, and minus the stamp as its budgets and VM ids.
var (
	poisonHandle = pastry.NodeHandle{Id: ids.New(^uint64(0), ^uint64(0)), Addr: simnet.Addr(0)}
	poisonDemand = cluster.Resources{CPU: math.NaN(), MemMB: math.NaN(), BandwidthMbps: math.NaN()}
)

// Poison poisons every bank of the shuffle.
func (b *shuffleBank) Poison(stamp uint64) int {
	return b.sheds.Poison(stamp) + b.queries.Poison(stamp) + b.releases.Poison(stamp) +
		b.rels.Poison(stamp) + b.acks.Poison(stamp) + b.renews.Poison(stamp)
}

func (ex *shedExchange) Poison(stamp uint64) (twice bool) {
	twice = ex.budget == -int(stamp)
	*ex = shedExchange{demand: poisonDemand, by: poisonHandle, budget: -int(stamp), holds: -int(stamp)}
	return twice
}

func (q *shedQuery) Poison(stamp uint64) (twice bool) {
	twice = q.VMID == cluster.VMID(-int(stamp))
	*q = shedQuery{VMID: cluster.VMID(-int(stamp)), Customer: "poisoned", Reservation: poisonDemand, Demand: poisonDemand}
	return twice
}

func (r *releaseRetry) Poison(stamp uint64) (twice bool) {
	twice = r.retriesLeft == -int(stamp)
	*r = releaseRetry{to: poisonHandle, key: releaseKey{vm: cluster.VMID(-int(stamp)), addr: poisonHandle.Addr}, retriesLeft: -int(stamp), backoff: -1}
	return twice
}

func (m *releaseMsg) Poison(stamp uint64) (twice bool) {
	twice, m.VMID = m.VMID == cluster.VMID(-int(stamp)), cluster.VMID(-int(stamp))
	return twice
}

func (m *releaseAckMsg) Poison(stamp uint64) (twice bool) {
	twice, m.VMID = m.VMID == cluster.VMID(-int(stamp)), cluster.VMID(-int(stamp))
	return twice
}

func (m *renewMsg) Poison(stamp uint64) (twice bool) {
	twice = m.VMID == cluster.VMID(-int(stamp))
	*m = renewMsg{VMID: cluster.VMID(-int(stamp)), Demand: poisonDemand}
	return twice
}

// VetoedByCost sums the shed attempts abandoned by the cost-benefit module.
func (c *Coordinator) VetoedByCost() int {
	total := 0
	for _, a := range c.agents {
		total += int(a.vetoedByCost.Value())
	}
	return total
}
