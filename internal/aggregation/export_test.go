package aggregation

import (
	"math"
	"time"

	"vbundle/internal/ids"
)

// poisonAgg is what poisoning writes into an aggregate: NaN, which turns any
// aggregate it is folded into to NaN.
var poisonAgg = Aggregate{Sum: math.NaN(), Count: 1, Min: math.NaN(), Max: math.NaN()}

// poisonValues is the fold list a poisoned shell carries: one NaN entry. It
// is in no bank, and its reader count is too large for any drop to bank it.
var poisonValues = func() *foldList {
	l := &foldList{}
	l.attrList = l.buf[:1]
	l.buf[0] = attrVal{attr: DefaultAttr, agg: poisonAgg}
	l.readers.Set(math.MaxInt32 / 2)
	return l
}()

// Poison overwrites a banked push shell (sim.CheckPoisoned): an all-ones
// topic, poisonValues and minus the stamp as LeafSentAt. A shell banked with
// its fold list panics.
func (u *upMsg) Poison(stamp uint64) (twice bool) {
	if u.Values != nil && u.Values != poisonValues {
		panic("aggregation: a banked shell holds a fold list")
	}
	twice = u.LeafSentAt == -time.Duration(stamp)
	u.Topic, u.Values, u.LeafSentAt = ids.New(^uint64(0), ^uint64(0)), poisonValues, -time.Duration(stamp)
	return twice
}

// Poison overwrites a banked fold list: minus the stamp as its reader count,
// and a NaN entry of an attribute no topic names in every slot of its
// backing.
func (l *foldList) Poison(stamp uint64) (twice bool) {
	twice = l.readers.Count() == -int32(stamp)
	l.readers.Set(-int32(stamp))
	all := l.attrList[:cap(l.attrList)]
	for i := range all {
		all[i] = attrVal{attr: "poisoned", agg: poisonAgg}
	}
	l.buf[0] = attrVal{attr: "poisoned", agg: poisonAgg}
	return twice
}
