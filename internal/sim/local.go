package sim

import "sync/atomic"

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
