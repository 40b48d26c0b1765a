package pastry

import (
	"vbundle/internal/ids"
	"vbundle/internal/sim"
)

// poisonKey is the all-ones identifier the poison hooks write.
var poisonKey = ids.New(^uint64(0), ^uint64(0))

// poisonPayload is what a poisoned envelope carries: no application expects
// it, so an envelope read after it was banked delivers nothing.
type poisonPayload struct{}

// PoisonBanked overwrites every field but the stack link of every envelope
// and direct envelope banked on e's pool: a key and identifiers of all ones,
// App "poisoned", Hops -1, sender address 0 and a poisonPayload. A husk is
// banked once nothing reads it any more, so poisoning the banks between any
// two events must change nothing a run computes. It returns how many husks
// it poisoned, and panics on a stack that loops (a husk banked twice).
func PoisonBanked(e *sim.Engine) (husks int) {
	p := envPools.Of(e)
	bad := NodeHandle{Id: poisonKey, Addr: 0}
	husks += walkBanked(p.env, func(env *envelope) *envelope { return env.next }, func(env *envelope) {
		env.Key, env.App, env.Hops, env.Source, env.Payload = poisonKey, "poisoned", -1, bad, poisonPayload{}
	})
	husks += walkBanked(p.dir, func(env *directEnvelope) *directEnvelope { return env.next }, func(env *directEnvelope) {
		env.App, env.From, env.Payload = "poisoned", bad, poisonPayload{}
	})
	return husks
}

// walkBanked calls poison on every husk of the stack from top and returns
// how many there were. A second cursor runs the stack at twice the pace: on a
// stack that loops (a husk banked twice) the two meet, and it panics.
func walkBanked[T comparable](top T, next func(T) T, poison func(T)) (n int) {
	var none T
	for slow, fast := top, top; slow != none; n++ {
		poison(slow)
		slow = next(slow)
		for i := 0; i < 2 && fast != none; i++ {
			fast = next(fast)
		}
		if slow != none && slow == fast {
			panic("pastry: a husk is banked twice")
		}
	}
	return n
}
