// Package ids implements the 128-bit circular identifier space used by the
// Pastry overlay and by v-Bundle's topology-aware placement.
//
// Identifiers are 128-bit unsigned integers arranged on a ring modulo 2^128.
// Pastry interprets an identifier as a sequence of digits of width b bits
// (b is typically 4, giving hexadecimal digits); routing proceeds by
// matching progressively longer digit prefixes.
//
// v-Bundle additionally assigns server identifiers to mirror the physical
// hierarchy of the datacenter: numerically adjacent identifiers belong to
// physically adjacent servers (see Scaled). This property is what turns
// "numerically close on the ring" into "physically close in the datacenter"
// and makes DHT-based placement bandwidth preserving.
package ids

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
)

// Bits is the width of an identifier in bits.
const Bits = 128

// Bytes is the width of an identifier in bytes.
const Bytes = Bits / 8

// Id is a 128-bit identifier on the Pastry ring, stored big-endian:
// hi holds the most significant 64 bits, lo the least significant.
type Id struct {
	hi, lo uint64
}

// Zero is the identifier with all bits clear.
var Zero = Id{}

// New builds an identifier from its two 64-bit halves.
func New(hi, lo uint64) Id { return Id{hi: hi, lo: lo} }

// Hi returns the most significant 64 bits.
func (a Id) Hi() uint64 { return a.hi }

// Lo returns the least significant 64 bits.
func (a Id) Lo() uint64 { return a.lo }

// FromBytes builds an identifier from a 16-byte big-endian slice.
// It returns an error if the slice is not exactly 16 bytes long.
func FromBytes(p []byte) (Id, error) {
	if len(p) != Bytes {
		return Id{}, fmt.Errorf("ids: need %d bytes, got %d", Bytes, len(p))
	}
	return Id{
		hi: binary.BigEndian.Uint64(p[:8]),
		lo: binary.BigEndian.Uint64(p[8:]),
	}, nil
}

// HashString maps an arbitrary string (for example a customer or group name)
// onto the ring by taking the first 128 bits of its SHA-1 digest. This is the
// key construction the paper uses both for hash(customer) placement keys and
// for Scribe groupIds.
func HashString(s string) Id {
	sum := sha1.Sum([]byte(s))
	id, _ := FromBytes(sum[:Bytes])
	return id
}

// Random draws an identifier uniformly at random from the ring.
func Random(rng *rand.Rand) Id {
	return Id{hi: rng.Uint64(), lo: rng.Uint64()}
}

// Scaled returns the identifier floor(index * 2^128 / total): the index-th of
// total identifiers spaced evenly around the ring, in increasing numeric
// order. v-Bundle uses this to assign server nodeIds along the physical
// hierarchy: servers enumerated rack by rack receive consecutive indices, so
// ring adjacency coincides with physical adjacency (paper §II.B).
//
// Scaled panics if total <= 0 or index is outside [0, total).
func Scaled(index, total int) Id {
	if total <= 0 {
		panic("ids: Scaled with non-positive total")
	}
	if index < 0 || index >= total {
		panic("ids: Scaled index out of range")
	}
	// Compute floor(index * 2^128 / total) via long division:
	// interpret index as the integer part of a 192-bit value index<<128.
	q1, r1 := bits.Div64(0, uint64(index), uint64(total))
	q2, r2 := bits.Div64(r1, 0, uint64(total))
	q3, _ := bits.Div64(r2, 0, uint64(total))
	_ = q1 // q1 is always zero because index < total.
	return Id{hi: q2, lo: q3}
}

// Cmp compares two identifiers numerically, returning -1, 0 or +1.
func (a Id) Cmp(b Id) int {
	switch {
	case a.hi < b.hi:
		return -1
	case a.hi > b.hi:
		return 1
	case a.lo < b.lo:
		return -1
	case a.lo > b.lo:
		return 1
	default:
		return 0
	}
}

// Less reports whether a is numerically smaller than b.
func (a Id) Less(b Id) bool { return a.Cmp(b) < 0 }

// Sub returns (a - b) mod 2^128.
func (a Id) Sub(b Id) Id {
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	hi, _ := bits.Sub64(a.hi, b.hi, borrow)
	return Id{hi: hi, lo: lo}
}

// Dist returns the circular (ring) distance between a and b: the length of
// the shorter arc, min((a-b) mod 2^128, (b-a) mod 2^128).
func (a Id) Dist(b Id) Id {
	d1 := a.Sub(b)
	d2 := b.Sub(a)
	if d1.Less(d2) {
		return d1
	}
	return d2
}

// CloserTo reports whether a is strictly closer to target than b is, by
// circular distance. Ties (equal distance from opposite sides) are broken in
// favour of the numerically smaller identifier so that the relation stays a
// strict weak ordering.
func CloserTo(target, a, b Id) bool {
	da, db := a.Dist(target), b.Dist(target)
	if c := da.Cmp(db); c != 0 {
		return c < 0
	}
	return a.Less(b)
}

// InArc reports whether x lies on the clockwise arc from a to b, excluding a
// and including b. The arc from a to a is empty.
func InArc(x, a, b Id) bool {
	if a == b {
		return false
	}
	// x in (a, b] clockwise  <=>  (x - a) mod 2^128 in (0, (b - a) mod 2^128].
	dx := x.Sub(a)
	db := b.Sub(a)
	return dx != Zero && !db.Less(dx)
}

// DigitAt returns the i-th digit of the identifier, where digits are b bits
// wide and digit 0 is the most significant. It panics unless 0 < b, b divides
// 64, and i is within range.
func (a Id) DigitAt(i, b int) int {
	checkDigitWidth(b)
	perWord := 64 / b
	if i < 0 || i >= Bits/b {
		panic("ids: digit index out of range")
	}
	word := a.hi
	if i >= perWord {
		word = a.lo
		i -= perWord
	}
	shift := uint(64 - b*(i+1))
	mask := uint64(1)<<uint(b) - 1
	return int(word >> shift & mask)
}

// CommonPrefixLen returns the number of leading digits (b bits wide) that a
// and b share. The result is in [0, 128/b].
func (a Id) CommonPrefixLen(other Id, b int) int {
	checkDigitWidth(b)
	var lead int
	if a.hi != other.hi {
		lead = bits.LeadingZeros64(a.hi ^ other.hi)
	} else if a.lo != other.lo {
		lead = 64 + bits.LeadingZeros64(a.lo^other.lo)
	} else {
		return Bits / b
	}
	return lead / b
}

func checkDigitWidth(b int) {
	switch b {
	case 1, 2, 4, 8, 16, 32, 64:
	default:
		panic("ids: digit width must divide 64")
	}
}

// String renders the identifier as 32 hexadecimal characters.
func (a Id) String() string {
	var buf [Bytes]byte
	binary.BigEndian.PutUint64(buf[:8], a.hi)
	binary.BigEndian.PutUint64(buf[8:], a.lo)
	return hex.EncodeToString(buf[:])
}

// Short renders the first 8 hexadecimal characters, for compact logs.
func (a Id) Short() string { return a.String()[:8] }
