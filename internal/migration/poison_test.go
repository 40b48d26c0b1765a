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
// is banked only once nothing reads it, and the flights to theirs, that a
// flight reads its VM's record only while the VM lives. Waves of migrations
// of different lengths, some refused at arrival, run one event at a time;
// every other wave destroys two VMs, migrating or not, and makes one, which
// takes a freed slot. Poisoned, every banked flight and every destroyed VM's
// record still on the cluster's free list is overwritten after every event,
// and the completions must be what they are untouched.
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
		freed := &freedVMs{}
		p.Watch(freed)
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
				switch wave % 2 {
				case 0:
					for range 2 {
						k := rng.Intn(len(vms))
						cl.Destroy(vms[k].ID)
						freed.add(vms[k])
						vms = append(vms[:k], vms[k+1:]...)
					}
				case 1:
					vm, _ := cl.CreateVM("c", res(64, 10), res(128, 100))
					freed.remove(vm)
					if err := cl.Place(vm, rng.Intn(cl.Size())); err == nil {
						vms = append(vms, vm)
					}
				}
				for k := 0; k < 6; k++ {
					id := vms[rng.Intn(len(vms))].ID
					dst := rng.Intn(cl.Size())
					err := m.MigrateTraced(nil, obs.NoRef, id, dst, doneFunc(func(err error) {
						fmt.Fprintf(&log, "%v: vm %d to %d: %v\n", engine.Now(), id, dst, err)
					}))
					fmt.Fprintf(&log, "%v: start vm %d to %d: %v\n", engine.Now(), id, dst, err)
				}
			})
		}
		p.RunUntil(engine, math.MaxInt64)
		fmt.Fprintf(&log, "%+v\n", m.Stats())
		return log.String()
	})
}
