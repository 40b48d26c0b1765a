package migration

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/obs"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

// poisonDone is what a poisoned flight reports to: a completion read after
// its flight was banked leaves a line no untouched run writes.
type poisonDone struct{ log *strings.Builder }

func (p poisonDone) MigrationDone(error) { p.log.WriteString("poisoned completion\n") }

// TestPoisonedBanksChangeNothing holds the flight bank to its rule: a flight
// is banked only once nothing reads it. Waves of migrations of different
// lengths, some refused at arrival, run one event at a time, and after every
// event every banked flight is overwritten with garbage (no manager, VM or
// span, negative servers and duration, a completion that logs itself); the
// completions must be what they are untouched.
func TestPoisonedBanksChangeNothing(t *testing.T) {
	run := func(poison bool) (string, int) {
		tp, err := topology.New(topology.Spec{Racks: 2, ServersPerRack: 4, NICMbps: 400})
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.NewEngine(1)
		cl := cluster.New(tp, cluster.Resources{CPU: 16, MemMB: 1024})
		m := New(engine, cl)
		var log strings.Builder
		rng := rand.New(rand.NewSource(3))
		var vms []*cluster.VM
		for i := 0; i < 32; i++ {
			vm, _ := cl.CreateVM("c", res(float64(32*(1+i%4)), 10), res(128, 100))
			if err := cl.Place(vm, i%cl.Size()); err != nil {
				t.Fatal(err)
			}
			vms = append(vms, vm)
		}
		for wave := 0; wave < 20; wave++ {
			engine.At(time.Duration(wave)*300*time.Millisecond, func() {
				for k := 0; k < 6; k++ {
					vm := vms[rng.Intn(len(vms))]
					dst := rng.Intn(cl.Size())
					err := m.MigrateTraced(nil, obs.NoRef, vm.ID, dst, doneFunc(func(err error) {
						fmt.Fprintf(&log, "%v: vm %d to %d: %v\n", engine.Now(), vm.ID, dst, err)
					}))
					fmt.Fprintf(&log, "%v: start vm %d to %d: %v\n", engine.Now(), vm.ID, dst, err)
				}
			})
		}
		poisoned := 0
		for engine.Step() {
			if !poison {
				continue
			}
			for _, f := range m.flights.Banked() {
				*f = flight{src: -1, dst: -1, d: -1, span: ^obs.Ref(0), onDone: poisonDone{&log}}
				poisoned++
			}
		}
		fmt.Fprintf(&log, "%+v\n", m.Stats())
		return log.String(), poisoned
	}
	want, _ := run(false)
	got, poisoned := run(true)
	if poisoned == 0 {
		t.Fatal("no flight was ever banked")
	}
	if got != want {
		t.Errorf("poisoned run logged\n%s\nthe untouched one\n%s", got, want)
	}
}
