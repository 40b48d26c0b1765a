package workload

import (
	"cmp"
	"slices"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/sim"
)

// Driver binds generators to VMs and refreshes their bandwidth demands on a
// fixed virtual-time cadence, modelling the hosted applications' changing
// load.
type Driver struct {
	engine *sim.Engine
	cl     *cluster.Cluster
	// gens is kept in ascending VM-id order, so a refresh is a linear walk
	// in an order fixed by the bindings alone: a generator that keeps state
	// or draws from a shared source sees the same sequence on every run of
	// a seed.
	gens []binding
	// ticker runs Refresh every interval in the global band (refresher).
	ticker   sim.Ticker
	interval time.Duration
}

// binding is one VM's generator.
type binding struct {
	id  cluster.VMID
	gen Generator
}

// NewDriver creates a driver over the given cluster.
func NewDriver(engine *sim.Engine, cl *cluster.Cluster) *Driver {
	return &Driver{engine: engine, cl: cl}
}

// Attach binds a generator to a VM, replacing any previous binding.
func (d *Driver) Attach(id cluster.VMID, gen Generator) {
	i, bound := slices.BinarySearchFunc(d.gens, id, func(b binding, id cluster.VMID) int {
		return cmp.Compare(b.id, id)
	})
	if bound {
		d.gens[i].gen = gen
		return
	}
	d.gens = slices.Insert(d.gens, i, binding{id: id, gen: gen})
}

// Refresh sets every attached VM's bandwidth demand to its generator value
// at the current virtual time, through Cluster.SetDemandBW: a value that
// did not change marks no server changed.
func (d *Driver) Refresh() {
	now := d.engine.Now()
	for _, b := range d.gens {
		if vm := d.cl.VM(b.id); vm != nil {
			d.cl.SetDemandBW(vm, b.gen.DemandAt(now))
		}
	}
}

// Start refreshes immediately and then every interval. It is idempotent.
func (d *Driver) Start(interval time.Duration) {
	if d.ticker.Running() {
		return
	}
	d.Refresh()
	d.interval = interval
	d.ticker.StartGlobal((*refresher)(d))
}

// Stop halts periodic refreshes.
func (d *Driver) Stop() { d.ticker.Stop() }

// refresher is the driver as what its ticker runs.
type refresher Driver

func (r *refresher) Fire()                                { (*Driver)(r).Refresh() }
func (r *refresher) Period() (*sim.Engine, time.Duration) { return r.engine, r.interval }
