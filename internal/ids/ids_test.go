package ids

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// Max is the identifier with all bits set (2^128 - 1).
var Max = Id{hi: ^uint64(0), lo: ^uint64(0)}

// Add returns (a + b) mod 2^128.
func (a Id) Add(b Id) Id {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return Id{hi: hi, lo: lo}
}

// AppendBytes appends the big-endian byte representation of a to dst.
func (a Id) AppendBytes(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, a.hi)
	dst = binary.BigEndian.AppendUint64(dst, a.lo)
	return dst
}

// Parse converts a 32-character hexadecimal string back into an identifier.
func Parse(s string) (Id, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return Id{}, fmt.Errorf("ids: parse %q: %w", s, err)
	}
	return FromBytes(raw)
}

func TestScaledOrderingAndSpacing(t *testing.T) {
	const n = 97
	prev := Scaled(0, n)
	if prev != Zero {
		t.Fatalf("Scaled(0, %d) = %v, want zero", n, prev)
	}
	for i := 1; i < n; i++ {
		cur := Scaled(i, n)
		if !prev.Less(cur) {
			t.Fatalf("Scaled not strictly increasing at i=%d: %v !< %v", i, prev, cur)
		}
		prev = cur
	}
}

func TestScaledEvenSpacing(t *testing.T) {
	// Gaps between consecutive scaled ids differ by at most one ulp.
	const n = 13
	var gaps []Id
	for i := 0; i < n-1; i++ {
		gaps = append(gaps, Scaled(i+1, n).Sub(Scaled(i, n)))
	}
	minG, maxG := gaps[0], gaps[0]
	for _, g := range gaps[1:] {
		if g.Less(minG) {
			minG = g
		}
		if maxG.Less(g) {
			maxG = g
		}
	}
	if diff := maxG.Sub(minG); diff.Cmp(New(0, 1)) > 0 {
		t.Fatalf("scaled gaps uneven: min=%v max=%v", minG, maxG)
	}
}

func TestScaledPanics(t *testing.T) {
	for _, tc := range []struct{ index, total int }{
		{0, 0}, {-1, 5}, {5, 5}, {0, -3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scaled(%d, %d) did not panic", tc.index, tc.total)
				}
			}()
			Scaled(tc.index, tc.total)
		}()
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(ahi, alo, bhi, blo uint64) bool {
		a, b := New(ahi, alo), New(bhi, blo)
		return a.Add(b).Sub(b) == a && a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistSymmetricAndBounded(t *testing.T) {
	f := func(ahi, alo, bhi, blo uint64) bool {
		a, b := New(ahi, alo), New(bhi, blo)
		d := a.Dist(b)
		if d != b.Dist(a) {
			return false
		}
		// d <= 2^127: the shorter arc cannot exceed half the ring.
		half := New(1<<63, 0)
		return !half.Less(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistTriangleOnRing(t *testing.T) {
	// Ring distance obeys the triangle inequality modulo wraparound:
	// dist(a, c) <= dist(a, b) + dist(b, c) when the sum does not overflow
	// half the ring. We check the general small-value case exactly.
	a, b, c := New(0, 10), New(0, 100), New(0, 1000)
	if got := a.Dist(c); got.Cmp(a.Dist(b).Add(b.Dist(c))) > 0 {
		t.Fatalf("triangle violated: %v > %v", got, a.Dist(b).Add(b.Dist(c)))
	}
}

func TestCloserToStrictWeakOrder(t *testing.T) {
	target := HashString("target")
	f := func(ahi, alo, bhi, blo uint64) bool {
		a, b := New(ahi, alo), New(bhi, blo)
		if a == b {
			return !CloserTo(target, a, b) && !CloserTo(target, b, a)
		}
		// Exactly one of the two directions must hold (total order given
		// the tie-break rule).
		return CloserTo(target, a, b) != CloserTo(target, b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInArc(t *testing.T) {
	tests := []struct {
		name    string
		x, a, b Id
		want    bool
	}{
		{"inside simple", New(0, 5), New(0, 1), New(0, 10), true},
		{"at open end", New(0, 1), New(0, 1), New(0, 10), false},
		{"at closed end", New(0, 10), New(0, 1), New(0, 10), true},
		{"outside", New(0, 11), New(0, 1), New(0, 10), false},
		{"wraparound inside", New(0, 2), Max, New(0, 5), true},
		{"wraparound outside", Max.Sub(New(0, 1)), Max, New(0, 5), false},
		{"empty arc", New(0, 3), New(0, 3), New(0, 3), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := InArc(tc.x, tc.a, tc.b); got != tc.want {
				t.Errorf("InArc(%v, %v, %v) = %v, want %v", tc.x, tc.a, tc.b, got, tc.want)
			}
		})
	}
}

// withDigit returns a with digit i (b bits wide, digit 0 most significant)
// replaced by d: the inverse DigitAt is held against.
func withDigit(a Id, i, b, d int) Id {
	word, j := &a.hi, i
	if perWord := 64 / b; j >= perWord {
		word, j = &a.lo, j-perWord
	}
	shift := uint(64 - b*(j+1))
	*word = *word&^((1<<uint(b)-1)<<shift) | uint64(d)<<shift
	return a
}

func TestDigitAtAndWithDigit(t *testing.T) {
	id := New(0x0123456789abcdef, 0xfedcba9876543210)
	// b = 4: hex digits, most significant first.
	wantHex := "0123456789abcdeffedcba9876543210"
	for i := 0; i < 32; i++ {
		want := hexVal(wantHex[i])
		if got := id.DigitAt(i, 4); got != want {
			t.Fatalf("DigitAt(%d, 4) = %x, want %x", i, got, want)
		}
	}
	// Round-trip withDigit.
	for i := 0; i < 32; i++ {
		for _, d := range []int{0, 7, 15} {
			mod := withDigit(id, i, 4, d)
			if got := mod.DigitAt(i, 4); got != d {
				t.Fatalf("withDigit(%d)=%x then DigitAt=%x", i, d, got)
			}
			// Other digits untouched.
			for j := 0; j < 32; j++ {
				if j == i {
					continue
				}
				if mod.DigitAt(j, 4) != id.DigitAt(j, 4) {
					t.Fatalf("withDigit(%d) disturbed digit %d", i, j)
				}
			}
		}
	}
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	default:
		return int(c-'a') + 10
	}
}

func TestDigitWidths(t *testing.T) {
	id := HashString("digits")
	for _, b := range []int{1, 2, 4, 8} {
		n := Bits / b
		// Reconstruct the id from its digits.
		got := Zero
		for i := 0; i < n; i++ {
			got = withDigit(got, i, b, id.DigitAt(i, b))
		}
		if got != id {
			t.Errorf("b=%d: digit round-trip mismatch", b)
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	a := New(0xabcd000000000000, 0)
	tests := []struct {
		b    Id
		bits int
		want int
	}{
		{New(0xabcd000000000000, 0), 4, 32},
		{New(0xabce000000000000, 0), 4, 3},
		{New(0xabcd000000000000, 1), 4, 31},
		{New(0x0bcd000000000000, 0), 4, 0},
		{New(0xabce000000000000, 0), 2, 7},
		{New(0xabce000000000000, 1), 1, 14},
	}
	for _, tc := range tests {
		if got := a.CommonPrefixLen(tc.b, tc.bits); got != tc.want {
			t.Errorf("CommonPrefixLen(%v, %v, b=%d) = %d, want %d", a, tc.b, tc.bits, got, tc.want)
		}
	}
}

func TestCommonPrefixLenAgreesWithDigits(t *testing.T) {
	f := func(ahi, alo, bhi, blo uint64) bool {
		a, b := New(ahi, alo), New(bhi, blo)
		for _, w := range []int{2, 4} {
			got := a.CommonPrefixLen(b, w)
			// Verify against digit-by-digit comparison.
			n := Bits / w
			want := n
			for i := 0; i < n; i++ {
				if a.DigitAt(i, w) != b.DigitAt(i, w) {
					want = i
					break
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashStringDeterministicAndSpread(t *testing.T) {
	if HashString("IBM") != HashString("IBM") {
		t.Fatal("HashString not deterministic")
	}
	if HashString("IBM") == HashString("ibm") {
		t.Fatal("HashString collides on case change")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		id := New(hi, lo)
		back, err := Parse(id.String())
		return err == nil && back == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "zz", "0123", "not-hex-at-all-not-hex-at-all!!"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	id := HashString("bytes")
	back, err := FromBytes(id.AppendBytes(nil))
	if err != nil || back != id {
		t.Fatalf("byte round trip: %v, err %v", back, err)
	}
	if _, err := FromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("FromBytes(short) succeeded, want error")
	}
}

func TestRandomUsesRng(t *testing.T) {
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	if Random(r1) != Random(r2) {
		t.Fatal("Random not deterministic for equal seeds")
	}
}

func TestScaledAdjacencyMatchesHierarchy(t *testing.T) {
	// Servers enumerated rack-by-rack get adjacent ids: the ring successor
	// of server (r, s) is (r, s+1), wrapping into the next rack.
	const racks, perRack = 5, 4
	total := racks * perRack
	for i := 0; i < total-1; i++ {
		a, b := Scaled(i, total), Scaled(i+1, total)
		// No other scaled id lies strictly between them.
		for j := 0; j < total; j++ {
			if j == i || j == i+1 {
				continue
			}
			if x := Scaled(j, total); InArc(x, a, b) && x != b {
				t.Fatalf("id %d intrudes between %d and %d", j, i, i+1)
			}
		}
	}
}
