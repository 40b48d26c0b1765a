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
// goroutine that runs the engine, or while it is parked); the engine's event
// bank holds its own. The zero value is ready to use.
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

// Bank is a free list over a Slab, for records and message shells that have
// one owner at a time: Take hands out a banked value, or carves one when none
// is banked, and whoever ends the value Puts it back. Keep a bank in a Local,
// so that it is touched only by the goroutine that runs its engine (or while
// the engine is parked); in a struct that one goroutine owns, as the engine's
// event bank and serve's frontend flight records are; or behind a lock. What
// it holds is then bounded by the peak number of values in use, not by how
// many were ever used. A taken value holds whatever its last owner, or a test
// poisoning the bank, left in it: the taker writes every field it reads. The
// zero value is ready to use.
//
// The list is a stack of chunks that double in length from slabMinLen up to
// bankChunkLen, never one slice that grows: a tree build banks a hundred
// thousand shells at once, and regrowing one backing to that size would
// allocate five times what it ends up holding. A chunk that Take empties is
// kept for the Put that needs it next, so a bank that drains and refills
// below its peak allocates nothing.
type Bank[T any] struct {
	free   []*T   // the top chunk, the last value banked at its end
	full   [][]*T // the full chunks below it
	spares [][]*T // the chunks Take emptied, the last emptied last
	listed []*T   // Banked's list, reused from call to call
	slab   Slab[T]
}

// bankChunkLen caps a bank's chunks at 32 KB of pointers, a slab's largest
// chunk: a hundred thousand banked shells cost some thirty chunks.
const bankChunkLen = 4096

// Take returns a banked value, or a new zeroed one when none is banked.
func (b *Bank[T]) Take() *T {
	if len(b.free) == 0 {
		n := len(b.full)
		if n == 0 {
			return b.slab.New()
		}
		b.spares = append(b.spares, b.free)
		b.free, b.full = b.full[n-1], b.full[:n-1]
	}
	n := len(b.free) - 1
	v := b.free[n]
	b.free = b.free[:n]
	return v
}

// Put banks v, which no one may read or write until Take returns it again.
// It makes no call, so that it inlines.
func (b *Bank[T]) Put(v *T) {
	if len(b.free) == cap(b.free) {
		var next []*T
		if n := len(b.spares); n > 0 {
			next, b.spares = b.spares[n-1], b.spares[:n-1]
		} else {
			next = make([]*T, 0, min(max(2*cap(b.free), slabMinLen), bankChunkLen))
		}
		if cap(b.free) > 0 {
			b.full = append(b.full, b.free)
		}
		b.free = next
	}
	b.free = append(b.free, v)
}

// Banked returns the values the bank holds, first banked first, for a test
// that poisons them. The list is valid until the next call.
func (b *Bank[T]) Banked() []*T {
	b.listed = b.listed[:0]
	for _, c := range b.full {
		b.listed = append(b.listed, c...)
	}
	b.listed = append(b.listed, b.free...)
	return b.listed
}

// Readers is the reader count of a banked record that several holders read at
// once, where a Bank's one owner does not fit: a fold list is the sender's
// cache, the push that carries it and the parent's info-base entry together.
// The taker sets the count to its own holds, each new holder adds one, and
// whoever drops the last banks the record on its own engine's bank — which
// may be another engine's than the one it was taken from, as with a message
// shell. Holders sit on different shards, so the count is atomic. Two shards
// that drop their readers in one window may race to the last one, so which
// bank a record lands on can differ from run to run; a taker writes every
// field it reads, so nothing a run computes depends on it. The zero value
// holds no reader.
type Readers struct{ n atomic.Int32 }

// Set sets the count: the taker's holds, before anyone else sees the record.
func (r *Readers) Set(n int32) { r.n.Store(n) }

// Add adds one reader. The caller must hold a reader already.
func (r *Readers) Add() { r.n.Add(1) }

// Drop gives up one reader and reports whether it was the last, in which case
// the caller banks the record. Dropping more readers than were added panics:
// the record may already have been banked and taken again.
func (r *Readers) Drop() bool {
	n := r.n.Add(-1)
	if n < 0 {
		panic("sim: a record dropped more readers than it had")
	}
	return n == 0
}

// Count returns the readers the record has, for a check that compares it
// with the holders it can see. Read it while every engine is parked.
func (r *Readers) Count() int32 { return r.n.Load() }
