package aggregation

import (
	"math"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/sim"
)

// poisonValues is the fold list a poisoned shell carries: one NaN entry,
// which turns any aggregate it is folded into to NaN.
var poisonValues = attrList{{attr: DefaultAttr, agg: Aggregate{Sum: math.NaN(), Count: 1, Min: math.NaN(), Max: math.NaN()}}}

// poisonBankedShells overwrites every field of every push shell banked on
// e's bank: an all-ones topic, the one-entry NaN fold list and the call's
// stamp, a negative duration, as LeafSentAt. A shell is banked once nothing
// reads it any more, so poisoning the banks between any two events must
// change nothing a run computes. It returns how many shells it poisoned, and
// panics on a shell listed twice: the second visit finds the stamp the first
// one wrote.
func poisonBankedShells(e *sim.Engine) (shells int) {
	poisonStamp--
	for _, u := range upShells.Of(e).Banked() {
		if u.LeafSentAt == poisonStamp {
			panic("aggregation: a shell is banked twice")
		}
		u.Topic, u.Values, u.LeafSentAt = ids.New(^uint64(0), ^uint64(0)), poisonValues, poisonStamp
		shells++
	}
	return shells
}

// poisonStamp is the last poisonBankedShells call's stamp.
var poisonStamp time.Duration
