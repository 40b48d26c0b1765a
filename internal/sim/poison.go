package sim

import (
	"fmt"
	"reflect"
	"strings"
	"time"
	"unsafe"
)

// Poisoner steps a CheckPoisoned scenario. The poisoned run sweeps after each
// event: every bank in a Local of the engine or its shards, or given to Watch.
type Poisoner struct {
	stamp    uint64 // the last sweep's; 0 while the run is untouched
	poisoned int
	banks    []interface{ Poison(uint64) int }
	// Swept counts what the sweeps filled by the type of the bank that
	// holds it (as %T prints it), over the run, so that a scenario can check
	// that a bank it means to exercise held something.
	Swept map[string]int
}

// Watch adds to every sweep a bank kept in a struct rather than a Local.
func (p *Poisoner) Watch(b interface{ Poison(uint64) int }) { p.banks = append(p.banks, b) }

// RunUntil steps e while its clock is before at and events remain.
func (p *Poisoner) RunUntil(e *Engine, at time.Duration) {
	engines := []*Engine{e}
	if e.ShardCount() > 1 {
		engines = append(engines, e.shards...)
	}
	sweep := func(b interface{ Poison(uint64) int }) {
		if n := b.Poison(p.stamp); n > 0 {
			if p.Swept == nil {
				p.Swept = make(map[string]int)
			}
			p.poisoned += n
			p.Swept[reflect.TypeOf(b).String()] += n
		}
	}
	for e.Now() < at && e.Step() {
		if p.stamp > 0 { // the poisoned run
			p.stamp++
			for _, b := range p.banks {
				sweep(b)
			}
			for _, e := range engines {
				for _, v := range e.locals {
					if b, ok := v.(interface{ Poison(uint64) int }); ok {
						sweep(b)
					}
				}
			}
		}
	}
}

// CheckPoisoned holds a scenario's banks to their rule, that a record is
// banked only once nothing reads it: at each shard count it runs untouched,
// then poisoned, and must return the same text and poison something.
func CheckPoisoned(t interface {
	Helper()
	Logf(format string, args ...any)
	Errorf(format string, args ...any)
}, shardCounts []int, scenario func(shards int, p *Poisoner) string) { // t is a *testing.T
	t.Helper()
	for _, k := range shardCounts {
		want := strings.SplitAfter(scenario(k, &Poisoner{}), "\n")
		p := &Poisoner{stamp: 1}
		got := strings.SplitAfter(scenario(k, p), "\n")
		t.Logf("%d shard(s): %d records poisoned", k, p.poisoned)
		if p.poisoned == 0 {
			t.Errorf("%d shard(s): no record was ever banked", k)
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Errorf("%d shard(s): line %d differs: poisoned %q, untouched %q", k, i+1, got[i], want[i])
				break
			}
		}
	}
}

// PoisonEach has each of vs poison itself and returns len(vs), or 0 when *T
// has no Poison; a stamp met twice panics. Every shard is parked: no -race.
//
//go:norace
func PoisonEach[T any](vs []*T, stamp uint64) int {
	if _, ok := any((*T)(nil)).(interface{ Poison(uint64) bool }); !ok {
		return 0
	}
	for _, v := range vs {
		if any(v).(interface{ Poison(uint64) bool }).Poison(stamp) {
			panic(fmt.Sprintf("sim: a %T is banked twice", v))
		}
	}
	return len(vs)
}

// Poison fills every banked backing to its capacity with v and returns how
// many it filled, for the Poison a CheckPoisoned scenario hands to Watch: the
// pool cannot make a T no owner would write, its caller can.
func (p *Pool[T]) Poison(v T) (n int) {
	for c := range p.classes {
		for _, first := range p.classes[c].free {
			b := unsafe.Slice(first, 1<<c)
			for i := range b {
				b[i] = v
			}
			n++
		}
	}
	return n
}

// Poison poisons what the bank holds (PoisonEach), for CheckPoisoned.
func (b *Bank[T]) Poison(stamp uint64) int {
	n := PoisonEach(b.free[:b.top], stamp)
	for _, c := range b.chunks[:max(b.n-1, 0)] {
		n += PoisonEach(c, stamp)
	}
	return n
}
