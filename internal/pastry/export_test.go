package pastry

import (
	"vbundle/internal/ids"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// poisonKey is the all-ones identifier the poison hooks write.
var poisonKey = ids.New(^uint64(0), ^uint64(0))

// poisonPayload is what a poisoned envelope carries: no application expects
// it, so an envelope read after it was banked delivers nothing.
type poisonPayload struct{}

// PoisonBanked overwrites every field of every envelope and direct envelope
// banked on e's pool: a key and identifiers of all ones, App "poisoned", a
// poisonPayload, and the call's stamp, a negative number, as a routed
// envelope's Hops and a direct one's sender address. A husk is banked once
// nothing reads it any more, so poisoning the banks between any two events
// must change nothing a run computes. It returns how many husks it poisoned,
// and panics on a husk listed twice: the second visit finds the stamp the
// first one wrote. (A map as the seen-set costs more than the run it
// watches: the poison runs after every event.)
func PoisonBanked(e *sim.Engine) (husks int) {
	p := envPools.Of(e)
	poisonStamp--
	stamp := poisonStamp
	for _, env := range p.env.Banked() {
		if env.Hops == int(stamp) {
			panic("pastry: a husk is banked twice")
		}
		env.Key, env.App, env.Hops, env.Payload = poisonKey, "poisoned", int(stamp), poisonPayload{}
		env.Source = NodeHandle{Id: poisonKey, Addr: simnet.Addr(stamp)}
		husks++
	}
	for _, env := range p.dir.Banked() {
		if env.From.Addr == simnet.Addr(stamp) {
			panic("pastry: a husk is banked twice")
		}
		env.App, env.From, env.Payload = "poisoned", NodeHandle{Id: poisonKey, Addr: simnet.Addr(stamp)}, poisonPayload{}
		husks++
	}
	return husks
}

// poisonStamp is the last PoisonBanked call's stamp.
var poisonStamp int32
