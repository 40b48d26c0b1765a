package aggregation

import (
	"math"

	"vbundle/internal/ids"
	"vbundle/internal/sim"
)

// poisonValues is the fold list a poisoned shell carries: one NaN entry,
// which turns any aggregate it is folded into to NaN.
var poisonValues = attrList{{attr: DefaultAttr, agg: Aggregate{Sum: math.NaN(), Count: 1, Min: math.NaN(), Max: math.NaN()}}}

// poisonBankedShells overwrites every field but the stack link of every push
// shell banked on e's list: an all-ones topic, the one-entry NaN fold list
// and a stamp of -1. A shell is banked once nothing reads it any more, so
// poisoning the lists between any two events must change nothing a run
// computes. It returns how many shells it poisoned, and panics on a list that
// loops (a shell banked twice): a second cursor runs it at twice the pace.
func poisonBankedShells(e *sim.Engine) (shells int) {
	top := upShells.Of(e).top
	for slow, fast := top, top; slow != nil; shells++ {
		slow.Topic, slow.Values, slow.LeafSentAt = ids.New(^uint64(0), ^uint64(0)), poisonValues, -1
		slow = slow.next
		for i := 0; i < 2 && fast != nil; i++ {
			fast = fast.next
		}
		if slow != nil && slow == fast {
			panic("aggregation: a shell is banked twice")
		}
	}
	return shells
}
