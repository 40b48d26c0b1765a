package migration

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/obs"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

// TestPoisonedBanksChangeNothing holds the flight bank to its rule: a flight
// is banked only once nothing reads it. Waves of migrations of different
// lengths, some refused at arrival, run one event at a time. Poisoned,
// every banked flight is overwritten after every event, and the completions
// must be what they are untouched.
func TestPoisonedBanksChangeNothing(t *testing.T) {
	sim.CheckPoisoned(t, []int{1}, func(_ int, p *sim.Poisoner) string {
		tp, err := topology.New(topology.Spec{Racks: 2, ServersPerRack: 4, NICMbps: 400})
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.NewEngine(1)
		cl := cluster.New(tp, cluster.Resources{CPU: 16, MemMB: 1024})
		m := New(engine, cl)
		p.Watch(&m.flights)
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
		p.RunUntil(engine, math.MaxInt64)
		fmt.Fprintf(&log, "%+v\n", m.Stats())
		return log.String()
	})
}
