package sim

import (
	"sync/atomic"
	"unsafe"
)

// Local names a value of which every engine holds its own instance: state the
// nodes of one engine share and that only the goroutine running that engine
// touches (or anyone, while its shard is parked) — which is what a free list
// of message shells needs. A message has one owner at a time, is consumed once
// at delivery, and the consumer banks the shell for the next send of any node
// on its own goroutine; the senders and the consumers of a tree are rarely the
// same nodes, so a list per node never paid back, and a list per process would
// need a lock that a serial run pays for nothing. The layers above keep their
// lists here instead of each keying a map by engine: a serial engine has one
// instance, a sharded root one a shard, and reuse is in the order the engine
// runs its events, so it repeats from run to run.
//
// Declare one with NewLocal in a package-level variable; the zero value of T
// must be ready to use.
type Local[T any] struct{ slot int }

var localSlots atomic.Int32

// NewLocal reserves the next slot of every engine for a T.
func NewLocal[T any]() Local[T] {
	return Local[T]{slot: int(localSlots.Add(1)) - 1}
}

// Of returns e's instance, a zero T the first time e is asked. Call it on the
// goroutine that runs e, or while e is idle.
func (l Local[T]) Of(e *Engine) *T {
	if l.slot < len(e.locals) {
		if v, ok := e.locals[l.slot].(*T); ok {
			return v
		}
	}
	for len(e.locals) <= l.slot {
		e.locals = append(e.locals, nil)
	}
	v := new(T)
	e.locals[l.slot] = v
	return v
}

// Slab hands out zeroed *T carved from chunks, for values that live as long
// as the engine they belong to: a per-node object made at construction costs
// one allocation a chunk instead of one a node. Nothing is ever given back,
// so a slab is for what is never dropped before its engine — an object that
// is replaced (a rebuilt node's) simply stays in its chunk — or for the cold
// refill of a free list that every value returns to (a message shell is
// banked by whoever ends it, the network included: simnet.Recycler). Chunks double in
// length from slabMinLen up to slabMaxBytes, so what an engine leaves unfilled
// is at most one chunk a type, however small the run. A per-node constructor
// keeps its slab in a Local of the node's engine (and so carves on the
// goroutine that runs the engine, or while it is parked); the engine keeps its
// events' in a field. The zero value is ready to use.
type Slab[T any] struct {
	free []T // the current chunk's unused tail
	n    int // the current chunk's length
}

const (
	slabMinLen   = 4
	slabMaxBytes = 32 << 10
)

// New returns a zeroed T no other call has returned.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		var zero T
		most := max(1, slabMaxBytes/max(1, int(unsafe.Sizeof(zero))))
		s.n = min(max(2*s.n, slabMinLen), most)
		s.free = make([]T, s.n)
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}
