package migration

import (
	"math"
	"slices"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/obs"
)

// migrate is MigrateTraced with no recorder, and onDone, if non-nil, as the
// completion.
func (m *Manager) migrate(id cluster.VMID, dst int, onDone func(error)) error {
	var done Done
	if onDone != nil {
		done = doneFunc(onDone)
	}
	return m.MigrateTraced(nil, obs.NoRef, id, dst, done)
}

// doneFunc adapts a func to Done.
type doneFunc func(err error)

func (f doneFunc) MigrationDone(err error) { f(err) }

// poisonDone is the completion of a poisoned flight: read after its flight
// was banked, it panics.
type poisonDone struct{}

func (poisonDone) MigrationDone(error) { panic("migration: a banked flight completed") }

// Poison overwrites a banked flight (sim.CheckPoisoned): no manager or span,
// a VM ID never issued, servers -1, minus the stamp as its duration and a poisonDone.
func (f *flight) Poison(stamp uint64) (twice bool) {
	twice = f.d == -time.Duration(stamp)
	*f = flight{vm: -1, src: -1, dst: -1, d: -time.Duration(stamp), span: ^obs.Ref(0), onDone: poisonDone{}}
	return twice
}

// freedVMs poisons the records of the VMs a scenario destroyed until a
// CreateVM takes their slots again (sim.CheckPoisoned): minus the stamp as
// the ID, which no VM is issued, customer "poisoned" and NaN resources.
type freedVMs struct{ recs []*cluster.VM }

func (f *freedVMs) add(vm *cluster.VM) { f.recs = append(f.recs, vm) }

func (f *freedVMs) remove(vm *cluster.VM) {
	if i := slices.Index(f.recs, vm); i >= 0 {
		f.recs = slices.Delete(f.recs, i, i+1)
	}
}

func (f *freedVMs) Poison(stamp uint64) int {
	nan := cluster.Resources{CPU: math.NaN(), MemMB: math.NaN(), BandwidthMbps: math.NaN()}
	for _, vm := range f.recs {
		*vm = cluster.VM{ID: -cluster.VMID(stamp), Customer: "poisoned", Reservation: nan, Limit: nan, Demand: nan}
	}
	return len(f.recs)
}
