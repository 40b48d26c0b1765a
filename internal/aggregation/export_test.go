package aggregation

import (
	"math"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/sim"
)

// poisonAgg is what poisoning writes into an aggregate: NaN, which turns any
// aggregate it is folded into to NaN.
var poisonAgg = Aggregate{Sum: math.NaN(), Count: 1, Min: math.NaN(), Max: math.NaN()}

// poisonAttr is the attribute poisoning writes into a banked fold list.
const poisonAttr = "poisoned"

// poisonValues is the fold list a poisoned shell carries: one NaN entry. It
// is in no bank, and its reader count is too large for any drop to bank it.
var poisonValues = func() *foldList {
	l := &foldList{}
	l.attrList = l.buf[:1]
	l.buf[0] = attrVal{attr: DefaultAttr, agg: poisonAgg}
	l.readers.Set(math.MaxInt32 / 2)
	return l
}()

// poisonBanks overwrites every field of every push shell and every fold list
// banked on e's banks. A shell gets an all-ones topic, the NaN fold list and
// the call's stamp, a negative duration, as LeafSentAt; a fold list gets the
// stamp as its reader count and a NaN entry of an attribute no topic names in
// every slot of its backing. A shell or a list is banked once nothing reads
// it any more, so poisoning the banks between any two events must change
// nothing a run computes. It returns how many shells and lists it poisoned,
// and panics on one listed twice: the second visit finds the stamp the first
// one wrote.
func poisonBanks(e *sim.Engine) (shells, folds int) {
	poisonStamp--
	for _, u := range upShells.Of(e).Banked() {
		if u.LeafSentAt == poisonStamp {
			panic("aggregation: a shell is banked twice")
		}
		u.Topic, u.Values, u.LeafSentAt = ids.New(^uint64(0), ^uint64(0)), poisonValues, poisonStamp
		shells++
	}
	for _, l := range foldLists.Of(e).Banked() {
		if l.readers.Count() == int32(poisonStamp) {
			panic("aggregation: a fold list is banked twice")
		}
		l.readers.Set(int32(poisonStamp))
		all := l.attrList[:cap(l.attrList)]
		for i := range all {
			all[i] = attrVal{attr: poisonAttr, agg: poisonAgg}
		}
		l.buf[0] = attrVal{attr: poisonAttr, agg: poisonAgg}
		folds++
	}
	return shells, folds
}

// poisonStamp is the last poisonBanks call's stamp.
var poisonStamp time.Duration
