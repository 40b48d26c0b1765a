package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vbundle/internal/sim"
)

// TestPoisonedBanksChangeNothing holds the VM-list spares and the VM free
// list to their rule: a backing is banked only once no server's list is in
// it, and a slot only once its VM is destroyed. A random run of placements,
// migrations and terminates, each an event of its own, grows and shrinks
// the servers' lists and reuses the slots terminates free; poisoned, every
// banked backing is filled with a VM no server hosts and every free slot's
// record overwritten after every operation, and every server must end with
// the list an untouched run leaves, each VM with the record it was made
// with.
func TestPoisonedBanksChangeNothing(t *testing.T) {
	sim.CheckPoisoned(t, []int{1}, func(_ int, p *sim.Poisoner) string {
		c, engine := testCluster(t), sim.NewEngine(1)
		p.Watch(&c.spares)
		p.Watch(&c.arena)
		rng := rand.New(rand.NewSource(9))
		var placed []VMID
		for op := 0; op < 2000; op++ {
			engine.At(time.Duration(op), func() {
				switch k := rng.Intn(10); {
				case k < 6 || len(placed) == 0:
					mem := float64(1 + rng.Intn(4))
					vm, err := c.CreateVM(fmt.Sprintf("c%d", rng.Intn(4)), Resources{CPU: 0.01, MemMB: mem}, Resources{CPU: 1, MemMB: mem})
					if err != nil {
						t.Fatal(err)
					}
					if c.Place(vm, rng.Intn(c.Size())) == nil {
						placed = append(placed, vm.ID)
					}
				case k < 9:
					_ = c.Migrate(placed[rng.Intn(len(placed))], rng.Intn(c.Size()))
				default:
					i := rng.Intn(len(placed))
					c.Terminate(placed[i])
					placed = append(placed[:i], placed[i+1:]...)
				}
			})
		}
		p.RunUntil(engine, time.Hour)
		var out strings.Builder
		for i, srv := range c.Servers() {
			fmt.Fprintf(&out, "server %d:", i)
			for _, vm := range srv.VMs() {
				fmt.Fprintf(&out, " %d/%s/%g", vm.ID, vm.Customer, vm.Reservation.MemMB)
			}
			out.WriteByte('\n')
		}
		return out.String()
	})
}
