package pastry

import (
	"vbundle/internal/ids"
	"vbundle/internal/simnet"
)

// poisonKey is the all-ones identifier a poisoned envelope carries, with a
// poisonPayload, which no application expects.
var poisonKey = ids.New(^uint64(0), ^uint64(0))

type poisonPayload struct{}

// Poison poisons both of the pool's banks (sim.CheckPoisoned).
func (p *envPool) Poison(stamp uint64) int { return p.env.Poison(stamp) + p.dir.Poison(stamp) }

// Poison overwrites a banked envelope with poisonKey, App "poisoned", a
// poisonPayload and minus the stamp as Hops and as the source's address.
func (env *envelope) Poison(stamp uint64) (twice bool) {
	twice, s := env.Hops == -int(stamp), -int(stamp)
	env.Key, env.App, env.Hops, env.Payload = poisonKey, "poisoned", s, poisonPayload{}
	env.Source = NodeHandle{Id: poisonKey, Addr: simnet.Addr(s)}
	return twice
}

// Poison overwrites a banked direct envelope likewise.
func (env *directEnvelope) Poison(stamp uint64) (twice bool) {
	from := NodeHandle{Id: poisonKey, Addr: simnet.Addr(-int(stamp))}
	twice, env.App, env.From, env.Payload = env.From == from, "poisoned", from, poisonPayload{}
	return twice
}
