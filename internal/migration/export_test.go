package migration

import (
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

// Poison overwrites a banked flight (sim.CheckPoisoned): no manager, VM or
// span, servers -1, minus the stamp as its duration and a poisonDone.
func (f *flight) Poison(stamp uint64) (twice bool) {
	twice = f.d == -time.Duration(stamp)
	*f = flight{src: -1, dst: -1, d: -time.Duration(stamp), span: ^obs.Ref(0), onDone: poisonDone{}}
	return twice
}
