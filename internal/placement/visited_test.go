package placement

import (
	"math/rand"
	"testing"

	"vbundle/internal/simnet"
)

// TestVisitedSetMatchesMap drives the set through walks of random length
// over clustered and scattered addresses — growth included — against a map,
// and checks after every reset that the index is empty again: a stranded
// slot would make a later walk skip a server it never visited.
func TestVisitedSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := newVisitedSet()
	for round := 0; round < 200; round++ {
		want := make(map[simnet.Addr]bool)
		var order []simnet.Addr
		n := rng.Intn(600)
		base := rng.Intn(1 << 20)
		for len(order) < n {
			// Mostly runs of adjacent addresses, as a walk visits them, with
			// jumps that alias onto the same slots modulo the table size.
			a := simnet.Addr(base + rng.Intn(n+1))
			if rng.Intn(8) == 0 {
				a += simnet.Addr(len(v.slots) * (1 + rng.Intn(4)))
			}
			if want[a] {
				continue
			}
			if v.Has(a) {
				t.Fatalf("round %d: Has(%d) before Add", round, a)
			}
			v.Add(a)
			want[a] = true
			order = append(order, a)
		}
		if v.Len() != len(order) {
			t.Fatalf("round %d: Len = %d, want %d", round, v.Len(), len(order))
		}
		if 4*v.Len() > 3*len(v.slots) {
			t.Fatalf("round %d: %d entries in %d slots, want at most three quarters full", round, v.Len(), len(v.slots))
		}
		for i, a := range order {
			if v.At(i) != a {
				t.Fatalf("round %d: At(%d) = %d, want %d", round, i, v.At(i), a)
			}
			if !v.Has(a) {
				t.Fatalf("round %d: Has(%d) = false after Add", round, a)
			}
			if probe := a + 1; !want[probe] && v.Has(probe) {
				t.Fatalf("round %d: Has(%d) = true, never added", round, probe)
			}
		}
		v.reset()
		if v.Len() != 0 {
			t.Fatalf("round %d: Len = %d after reset", round, v.Len())
		}
		for i, s := range v.slots {
			if s != 0 {
				t.Fatalf("round %d: slot %d still holds key %d after reset", round, i, s)
			}
		}
	}
}
