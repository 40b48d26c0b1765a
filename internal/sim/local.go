package sim

import (
	"math/bits"
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
// allocate five times what it ends up holding. The chunks below the top one
// are full; the ones above it are the ones Take emptied, kept for the Put
// that needs one next, so a bank that drains and refills below its peak
// allocates nothing.
type Bank[T any] struct {
	free   []*T   // the top chunk, banked values in free[:top]
	top    int    // how many values free holds, the last banked last
	chunks [][]*T // every chunk made, in stack order
	n      int    // the chunks in use: free is chunks[n-1]
	slab   Slab[T]
}

// bankChunkLen caps a bank's chunks at 32 KB of pointers, a slab's largest
// chunk: a hundred thousand banked shells cost some thirty chunks.
const bankChunkLen = 4096

// Take returns a banked value, or a new zeroed one when none is banked. The
// pop off the top chunk is all it does itself, so that it inlines.
func (b *Bank[T]) Take() *T {
	if b.top == 0 {
		return b.refill()
	}
	b.top--
	return b.free[b.top]
}

// refill is Take on an empty top chunk: it steps down to the full chunk
// below and takes its last value, or carves a new value when there is none.
func (b *Bank[T]) refill() *T {
	if b.n <= 1 {
		return b.slab.New()
	}
	b.n--
	b.free = b.chunks[b.n-1]
	b.top = len(b.free) - 1
	return b.free[b.top]
}

// Put banks v, which no one may read or write until Take returns it again.
// It makes no call, so that it inlines.
func (b *Bank[T]) Put(v *T) {
	if b.top == len(b.free) {
		if b.n == len(b.chunks) {
			b.chunks = append(b.chunks, make([]*T, min(max(2*len(b.free), slabMinLen), bankChunkLen)))
		}
		b.free, b.top = b.chunks[b.n], 0
		b.n++
	}
	b.free[b.top] = v
	b.top++
}

// Pool banks power-of-two backings for slices that grow by doubling, where a
// Bank's one fixed-size value does not fit: a server's VM list, a customer's
// live queue. Get hands out an empty backing of the size class a length asks
// for, from the class's free stack, or carved from the class's slab, whose
// chunks hold many backings in one allocation; Put banks a backing its owner
// has moved off, for the next Get of its class. A backing has one owner at a
// time, as a banked value has, and what a class holds is bounded by the peak
// number of its backings in use. Backings over poolMaxBytes are made and
// dropped, not pooled. The pool takes no lock: keep it in a struct that one
// goroutine owns, or behind a lock. The zero value is ready to use.
type Pool[T any] struct {
	classes [poolClasses]poolClass[T]
}

// poolMaxBytes caps a pooled backing. A larger one is rare (a server or a
// customer past a hundred VMs), the pushes that filled the backing it grew
// from pay for its allocation, and banked it would keep its bytes once its
// owner outgrew it, with no owner of its size left to take it.
const poolMaxBytes = 1 << 10

// poolClasses is one class more than a one-byte T can pool.
const poolClasses = 11

// poolClass holds one size class: backings of 1<<c elements.
type poolClass[T any] struct {
	free  []*T // the banked backings, each by its first element
	chunk []T  // the current slab chunk's uncarved tail
	n     int  // the current chunk's length, in backings
}

// pooled returns the class of a backing of size elements, a power of two,
// and whether the pool keeps backings of that size.
func (p *Pool[T]) pooled(size int) (c int, ok bool) {
	var zero T
	c = bits.Len(uint(size)) - 1
	return c, c < poolClasses && size*int(unsafe.Sizeof(zero)) <= poolMaxBytes
}

// Get returns an empty backing whose capacity is the smallest power of two
// not below n (1 for n below 1). Chunks double in backings from slabMinLen
// up to slabMaxBytes, as a Slab's do.
func (p *Pool[T]) Get(n int) []T {
	size := 1 << bits.Len(uint(max(n, 1)-1))
	c, ok := p.pooled(size)
	if !ok {
		return make([]T, 0, size)
	}
	pc := &p.classes[c]
	if k := len(pc.free); k > 0 {
		first := pc.free[k-1]
		pc.free = pc.free[:k-1]
		return unsafe.Slice(first, size)[:0]
	}
	if len(pc.chunk) == 0 {
		var zero T
		most := max(1, slabMaxBytes/max(1, size*int(unsafe.Sizeof(zero))))
		pc.n = min(max(2*pc.n, slabMinLen), most)
		pc.chunk = make([]T, pc.n*size)
	}
	b := pc.chunk[:0:size]
	pc.chunk = pc.chunk[size:]
	return b
}

// Put clears b's backing and banks it, or leaves it to the collector when it
// is over poolMaxBytes. Its capacity must be a power of two, and no one may
// read or write it until Get returns it again: pass only a backing Get
// returned, or one no one else holds.
func (p *Pool[T]) Put(b []T) {
	size := cap(b)
	if size == 0 || size&(size-1) != 0 {
		panic("sim: a pooled backing's capacity is a power of two")
	}
	c, ok := p.pooled(size)
	if !ok {
		return
	}
	b = b[:size]
	clear(b)
	p.classes[c].free = append(p.classes[c].free, &b[0])
}

// Keeps reports whether the pool banks backings of n elements: whether Put
// would keep one rather than leave it to the collector, and Get carve it
// rather than make it. An owner that holds on to its backings past their
// use asks it to let go of the ones the pool would not keep, and one that
// needs a larger backing makes it to the length it needs.
func (p *Pool[T]) Keeps(n int) bool {
	_, ok := p.pooled(n)
	return ok
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
