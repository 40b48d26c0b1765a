package placement

import (
	"bytes"
	"math/rand"
	"testing"

	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// newVisitedSet is an envelope's set as acquireQuery readies it.
func newVisitedSet(pool *sim.Pool[uint32]) visitedSet {
	var v visitedSet
	v.ready(pool)
	return v
}

// TestVisitedSetMatchesMap drives the set through walks of random length
// over clustered and scattered addresses — growth included — against a map,
// and checks after every reset that the index is empty again: a stranded
// slot would make a later walk skip a server it never visited.
func TestVisitedSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := newVisitedSet(new(sim.Pool[uint32]))
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

// FuzzVisitedSet drives two sets through an op string — Add, Has, reset and
// copyFrom in either direction, three bytes an op — against a map and an
// insertion-order list each. The set outlives a query now (the walk memo is
// one, copied into every resumed envelope), so a slot stranded by reset or a
// table mis-indexed by copyFrom would send some later walk past a server it
// never visited, or to one twice.
func FuzzVisitedSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 2, 1, 0, 1, 3, 0, 0, 1, 0, 1})                   // add, add, has, copy a→b, has
	f.Add([]byte{0, 0, 7, 2, 0, 0, 0, 0, 7, 3, 0, 0, 2, 0, 0})                   // add, reset, add again, copy, reset
	f.Add([]byte{4, 0, 9, 4, 1, 9, 4, 2, 9, 7, 0, 0, 0, 0, 9})                   // aliasing adds on b, copy b→a
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 1, 0, 3, 0, 0}, 60)) // growth, then copies into a smaller table
	f.Fuzz(func(t *testing.T, ops []byte) {
		type model struct {
			set   visitedSet
			pool  *sim.Pool[uint32]
			has   map[simnet.Addr]bool
			order []simnet.Addr
		}
		pool := new(sim.Pool[uint32])
		sets := [2]*model{
			{set: newVisitedSet(pool), pool: pool, has: map[simnet.Addr]bool{}}, // an envelope's
			{has: map[simnet.Addr]bool{}},                                       // the zero value, as a fresh walk memo holds it
		}
		check := func(m *model) {
			t.Helper()
			if m.set.Len() != len(m.order) {
				t.Fatalf("Len = %d, model holds %d", m.set.Len(), len(m.order))
			}
			for i, a := range m.order {
				if m.set.At(i) != a || !m.set.Has(a) {
					t.Fatalf("entry %d: At = %d, Has(%d) = %v; model holds %d", i, m.set.At(i), a, m.set.Has(a), a)
				}
			}
			occupied := 0
			for _, s := range m.set.slots {
				if s != 0 {
					occupied++
				}
			}
			if occupied != len(m.order) {
				t.Fatalf("%d slots occupied for %d entries", occupied, len(m.order))
			}
			if 4*len(m.order) > 3*len(m.set.slots) && len(m.order) > 0 {
				t.Fatalf("%d entries in %d slots, want at most three quarters full", len(m.order), len(m.set.slots))
			}
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			m, other := sets[ops[0]>>2&1], sets[1-ops[0]>>2&1]
			// Runs of neighbours, as a walk visits them, and jumps of 2^k that
			// alias onto the same slots of a power-of-two table.
			addr := simnet.Addr(ops[2]) + simnet.Addr(ops[1]&0x0f)<<(6+ops[1]>>4)
			switch ops[0] & 3 {
			case 0:
				if len(m.set.slots) == 0 {
					continue // Add is only ever called on a made set or a copy
				}
				if !m.has[addr] {
					m.set.Add(addr)
					m.has[addr] = true
					m.order = append(m.order, addr)
				}
			case 1:
				if len(m.set.slots) > 0 && m.set.Has(addr) != m.has[addr] {
					t.Fatalf("Has(%d) = %v, model says %v", addr, !m.has[addr], m.has[addr])
				}
			case 2:
				m.set.reset()
				m.has, m.order = map[simnet.Addr]bool{}, nil
				check(m)
			case 3:
				m.set.copyFrom(&other.set, m.pool)
				m.has = map[simnet.Addr]bool{}
				for a := range other.has {
					m.has[a] = true
				}
				m.order = append([]simnet.Addr(nil), other.order...)
				check(m)
				check(other)
			}
		}
		check(sets[0])
		check(sets[1])
	})
}
