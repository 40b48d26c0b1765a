package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestBankTakesFreshValuesWhenEmpty: an empty bank carves, and what it carves
// is zero and no other value, even with values taken earlier still in use.
func TestBankTakesFreshValuesWhenEmpty(t *testing.T) {
	var b Bank[slabbed]
	const n = 100
	seen := make(map[*slabbed]bool, n)
	for i := 0; i < n; i++ {
		v := b.Take()
		if *v != (slabbed{}) {
			t.Fatalf("value %d is not zero: %+v", i, *v)
		}
		if seen[v] {
			t.Fatalf("value %d was handed out before", i)
		}
		seen[v] = true
		v.id = i + 1
	}
	if b.n != 0 {
		t.Fatalf("a bank nothing was Put to holds %d chunks", b.n)
	}
}

// TestBankIsLastInFirstOut: Take hands back what was Put, the most recent
// first, as it was left — across the bank's chunk boundaries too — and
// carves again once the bank is empty.
func TestBankIsLastInFirstOut(t *testing.T) {
	var b Bank[slabbed]
	vs := make([]*slabbed, 2*bankChunkLen+100)
	for i := range vs {
		vs[i] = b.Take()
		vs[i].id = i + 1
	}
	for _, v := range vs {
		b.Put(v)
	}
	for i := len(vs) - 1; i >= 0; i-- {
		v := b.Take()
		if v != vs[i] {
			t.Fatalf("Take returned %p (id %d), want the value put %d-th, %p", v, v.id, i+1, vs[i])
		}
		if v.id != i+1 {
			t.Fatalf("a banked value came back holding id %d, want %d", v.id, i+1)
		}
	}
	if v := b.Take(); slices.Contains(vs, v) || *v != (slabbed{}) {
		t.Fatalf("an emptied bank handed out %p (%+v), want a fresh zero value", v, *v)
	}
}

// TestBankRefillingAllocatesNothing: once a bank has held n values, draining
// it and banking up to n again — across chunk boundaries, once or many times —
// allocates nothing: every chunk Take empties is kept for the Put that needs
// it next.
func TestBankRefillingAllocatesNothing(t *testing.T) {
	var b Bank[slabbed]
	held := 0
	for ; b.n < 4 || b.top != 1; held++ { // three full chunks, one value in a fourth
		b.Put(new(slabbed))
	}
	vs := make([]*slabbed, 0, held)
	for _, drain := range []int{2, cap(vs)} {
		if allocs := testing.AllocsPerRun(10, func() {
			for range drain {
				vs = append(vs, b.Take())
			}
			for len(vs) > 0 {
				b.Put(vs[len(vs)-1])
				vs = vs[:len(vs)-1]
			}
		}); allocs != 0 {
			t.Fatalf("taking %d values and banking them again allocates %.1f objects, want 0", drain, allocs)
		}
	}
}

// stamped is a banked record with a Poison method, which writes the stamp's
// complement into v.
type stamped struct{ v uint64 }

func (r *stamped) Poison(stamp uint64) (twice bool) {
	twice, r.v = r.v == ^stamp, ^stamp
	return twice
}

var (
	stampedBanks = NewLocal[Bank[stamped]]()
	plainBanks   = NewLocal[Bank[slabbed]]()
)

// recorder keeps what CheckPoisoned tells it.
type recorder struct{ strings.Builder }

func (r *recorder) Helper()                      {}
func (r *recorder) Logf(f string, args ...any)   { fmt.Fprintf(&r.Builder, f+"\n", args...) }
func (r *recorder) Errorf(f string, args ...any) { r.Logf("error: "+f, args...) }

// TestCheckPoisonedReports holds the poison harness to what it must report.
// Each row banks records on an engine of its shard count, and the run's two
// events, at 1 s and 2 s, print what the row's read returns, if it has one.
func TestCheckPoisonedReports(t *testing.T) {
	bank := func(e *Engine, n int) (last *stamped) { // n records holding 1
		vs := make([]*stamped, n)
		for i := range vs {
			vs[i] = stampedBanks.Of(e).Take()
			vs[i].v = 1
		}
		for _, v := range vs {
			stampedBanks.Of(e).Put(v)
		}
		return vs[n-1]
	}
	for _, row := range []struct {
		name   string
		shards int
		setup  func(e *Engine) (read func() any)
		want   string
	}{
		{"a record banked twice panics, naming its type", 1, func(e *Engine) func() any {
			stampedBanks.Of(e).Put(bank(e, 1))
			return nil
		}, "panic: sim: a *sim.stamped is banked twice"},
		{"every chunk of a bank is poisoned, and a value taken back is not", 1, func(e *Engine) func() any {
			bank(e, bankChunkLen+3)
			stampedBanks.Of(e).Take()
			return nil
		}, fmt.Sprintf("1 shard(s): %d records poisoned\n", 2*(bankChunkLen+2))},
		{"a bank whose record type has no Poison method is skipped", 1, func(e *Engine) func() any {
			plainBanks.Of(e).Put(plainBanks.Of(e).Take())
			bank(e, 1)
			return nil
		}, "1 shard(s): 2 records poisoned\n"},
		{"a scenario that banks nothing fails", 1, func(*Engine) func() any { return nil },
			"1 shard(s): 0 records poisoned\nerror: 1 shard(s): no record was ever banked\n"},
		{"the banks of a sharded root and of each shard are poisoned", 2, func(e *Engine) func() any {
			bank(e, 1)
			bank(e.Shard(1), 1)
			return nil
		}, "2 shard(s): 4 records poisoned\n"},
		{"a poisoned run that differs is reported at its first differing line", 1, func(e *Engine) func() any {
			r := bank(e, 1)
			return func() any { return r.v }
		}, "1 shard(s): 2 records poisoned\nerror: 1 shard(s): line 2 differs: " +
			`poisoned "2: 18446744073709551613\n", untouched "2: 1\n"` + "\n"},
	} {
		var rec recorder
		func() {
			defer func() {
				if r := recover(); r != nil {
					fmt.Fprint(&rec, "panic: ", r)
				}
			}()
			CheckPoisoned(&rec, []int{row.shards}, func(shards int, p *Poisoner) string {
				e := NewShardedEngine(1, shards)
				read := row.setup(e)
				var out strings.Builder
				for i := 1; i <= 2; i++ {
					e.AtGlobal(time.Duration(i)*time.Second, func() {
						if read != nil {
							fmt.Fprintf(&out, "%d: %v\n", i, read())
						}
					})
				}
				p.RunUntil(e, time.Hour)
				return out.String()
			})
		}()
		if got := rec.String(); got != row.want {
			t.Errorf("%s: the harness reported\n%s\nwant\n%s", row.name, got, row.want)
		}
	}
}
