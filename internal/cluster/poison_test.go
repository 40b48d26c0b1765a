package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestPoisonedBanksChangeNothing holds the VM-list spares to their rule: a
// backing is banked only once no server's list is in it. A random run of
// placements, migrations and terminates on a cluster whose servers' lists
// grow and shrink, with every banked backing filled to its capacity with a
// VM no server hosts after every operation, must leave every server with the
// list an untouched run leaves.
func TestPoisonedBanksChangeNothing(t *testing.T) {
	poisonVM := &VM{ID: -1}
	run := func(poison bool) (string, int) {
		c := testCluster(t)
		rng := rand.New(rand.NewSource(9))
		var placed []VMID
		poisoned := 0
		for op := 0; op < 2000; op++ {
			switch k := rng.Intn(10); {
			case k < 6 || len(placed) == 0:
				vm, err := c.CreateVM(fmt.Sprintf("c%d", rng.Intn(4)), Resources{CPU: 0.01, MemMB: 1}, Resources{CPU: 1, MemMB: 1})
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
			if !poison {
				continue
			}
			for _, s := range c.spares.spare {
				full := s[:cap(s)]
				for i := range full {
					full[i] = poisonVM
				}
				poisoned += len(full)
			}
		}
		var out strings.Builder
		for i, srv := range c.Servers() {
			fmt.Fprintf(&out, "server %d:", i)
			for _, vm := range srv.VMs() {
				fmt.Fprintf(&out, " %d", vm.ID)
			}
			out.WriteByte('\n')
		}
		return out.String(), poisoned
	}
	want, _ := run(false)
	got, poisoned := run(true)
	if poisoned == 0 {
		t.Fatal("no backing was ever banked")
	}
	if got != want {
		t.Errorf("poisoned run left\n%s\nthe untouched one\n%s", got, want)
	}
}
