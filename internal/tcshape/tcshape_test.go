package tcshape

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGuaranteesMet(t *testing.T) {
	classes := []Class{
		{Rate: 100, Ceil: 200, Demand: 500},
		{Rate: 100, Ceil: 100, Demand: 50},
		{Rate: 200, Ceil: 400, Demand: 400},
	}
	alloc := Allocate(400, classes)
	for i, c := range classes {
		if g := math.Min(c.Rate, c.Demand); alloc[i] < g-1e-9 {
			t.Errorf("class %d alloc %g below guarantee %g", i, alloc[i], g)
		}
	}
}

func TestIdleClassDoesNotHoard(t *testing.T) {
	// Paper motivation: an idle high-I/O VM should not pin its 200 Mbps
	// while a busy neighbour starves.
	classes := []Class{
		{Rate: 200, Ceil: 200, Demand: 10},  // idle high-I/O VM
		{Rate: 100, Ceil: 400, Demand: 390}, // busy standard VM
	}
	alloc := Allocate(400, classes)
	if !almostEq(alloc[0], 10) {
		t.Errorf("idle class got %g, want 10", alloc[0])
	}
	if !almostEq(alloc[1], 390) {
		t.Errorf("busy class got %g, want 390 (borrowing idle guarantee)", alloc[1])
	}
}

func TestCeilCapsBorrowing(t *testing.T) {
	classes := []Class{
		{Rate: 100, Ceil: 150, Demand: 1000},
		{Rate: 100, Ceil: 1000, Demand: 1000},
	}
	alloc := Allocate(1000, classes)
	if !almostEq(alloc[0], 150) {
		t.Errorf("capped class got %g, want 150", alloc[0])
	}
	if !almostEq(alloc[1], 850) {
		t.Errorf("uncapped class got %g, want 850", alloc[1])
	}
}

func TestEqualSharingOfSurplus(t *testing.T) {
	classes := []Class{
		{Rate: 0, Ceil: 1000, Demand: 1000},
		{Rate: 0, Ceil: 1000, Demand: 1000},
		{Rate: 0, Ceil: 1000, Demand: 1000},
		{Rate: 0, Ceil: 1000, Demand: 1000},
	}
	alloc := Allocate(400, classes)
	for i, a := range alloc {
		if !almostEq(a, 100) {
			t.Errorf("class %d got %g, want 100", i, a)
		}
	}
}

func TestExampleFromPaperFigure1(t *testing.T) {
	// Fig. 1(b): a 400 Mbps host with one standard VM (100) and one
	// high-I/O VM (200). Demands spike to 300 each. Traditional fixed-size
	// allocation caps them at 100+200; v-Bundle's rate/ceil classes let
	// them use the whole NIC.
	classes := []Class{
		{Rate: 100, Ceil: 400, Demand: 300},
		{Rate: 200, Ceil: 400, Demand: 300},
	}
	alloc := Allocate(400, classes)
	if got := alloc[0] + alloc[1]; !almostEq(got, 400) {
		t.Errorf("total allocation %g, want full NIC 400", got)
	}
	if alloc[0] < 100-1e-9 || alloc[1] < 200-1e-9 {
		t.Errorf("guarantees violated: %v", alloc)
	}
}

func TestOvercommittedGuaranteesScale(t *testing.T) {
	classes := []Class{
		{Rate: 300, Ceil: 300, Demand: 300},
		{Rate: 300, Ceil: 300, Demand: 300},
	}
	alloc := Allocate(300, classes)
	if !almostEq(alloc[0], 150) || !almostEq(alloc[1], 150) {
		t.Errorf("overcommit scaling: %v", alloc)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if got := Allocate(100, nil); len(got) != 0 {
		t.Errorf("nil classes: %v", got)
	}
	alloc := Allocate(0, []Class{{Rate: 10, Ceil: 20, Demand: 20}})
	if alloc[0] != 0 {
		t.Errorf("zero capacity: %v", alloc)
	}
	alloc = Allocate(-5, []Class{{Rate: 10, Ceil: 20, Demand: 20}})
	if alloc[0] != 0 {
		t.Errorf("negative capacity: %v", alloc)
	}
	alloc = Allocate(100, []Class{{Rate: 10, Ceil: 20, Demand: 0}})
	if alloc[0] != 0 {
		t.Errorf("zero demand: %v", alloc)
	}
}

// genClasses builds a random admissible class set: guarantees fit capacity.
func genClasses(rng *rand.Rand, capacity float64) []Class {
	n := 1 + rng.Intn(12)
	classes := make([]Class, n)
	budget := capacity
	for i := range classes {
		rate := rng.Float64() * budget / float64(n)
		budget -= rate
		ceil := rate + rng.Float64()*capacity
		classes[i] = Class{Rate: rate, Ceil: ceil, Demand: rng.Float64() * capacity * 1.5}
	}
	return classes
}

func TestAllocateInvariantsProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 100 + rng.Float64()*10000
		classes := genClasses(rng, capacity)
		alloc := Allocate(capacity, classes)

		var total float64
		allSatisfied := true
		for i, c := range classes {
			g := math.Min(c.Rate, c.Demand)
			tgt := math.Min(c.Ceil, c.Demand)
			if alloc[i] < g-1e-6 {
				return false // guarantee violated
			}
			if alloc[i] > tgt+1e-6 {
				return false // exceeded ceil or demand
			}
			if alloc[i] < tgt-1e-6 {
				allSatisfied = false
			}
			total += alloc[i]
		}
		if total > capacity+1e-6 {
			return false // capacity violated
		}
		if total < capacity-1e-6 && !allSatisfied {
			return false // not work-conserving
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSatisfied(t *testing.T) {
	classes := []Class{
		{Rate: 100, Ceil: 200, Demand: 300},
		{Rate: 100, Ceil: 300, Demand: 50},
	}
	var sh Shaper
	allocated, wanted := sh.Satisfied(400, classes)
	if !almostEq(wanted, 250) { // min(200,300) + min(300,50)
		t.Errorf("wanted = %g, want 250", wanted)
	}
	if !almostEq(allocated, 250) { // fits entirely
		t.Errorf("allocated = %g, want 250", allocated)
	}
	allocated, wanted = sh.Satisfied(100, classes)
	if allocated > 100+1e-9 {
		t.Errorf("allocated %g exceeds capacity", allocated)
	}
	if !almostEq(wanted, 250) {
		t.Errorf("wanted changed with capacity: %g", wanted)
	}
}

func TestDeterministicForEqualInput(t *testing.T) {
	classes := []Class{
		{Rate: 50, Ceil: 500, Demand: 400},
		{Rate: 50, Ceil: 500, Demand: 400},
		{Rate: 50, Ceil: 500, Demand: 100},
	}
	a := Allocate(600, classes)
	b := Allocate(600, classes)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic allocation: %v vs %v", a, b)
		}
	}
	// Symmetric classes receive symmetric shares.
	if !almostEq(a[0], a[1]) {
		t.Fatalf("symmetric classes got %g and %g", a[0], a[1])
	}
}

// refAllocate is the allocator as it stood before the fill moved onto Shaper
// scratch, kept verbatim (sort.Slice and all) as the reference every share
// is compared against bit for bit.
func refAllocate(capacity float64, classes []Class) []float64 {
	alloc := make([]float64, len(classes))
	if capacity <= 0 || len(classes) == 0 {
		return alloc
	}

	// Phase 1: guarantees.
	var guaranteedSum float64
	for _, c := range classes {
		guaranteedSum += c.guaranteed()
	}
	if guaranteedSum > capacity {
		scale := capacity / guaranteedSum
		for i, c := range classes {
			alloc[i] = c.guaranteed() * scale
		}
		return alloc
	}
	for i, c := range classes {
		alloc[i] = c.guaranteed()
	}
	remaining := capacity - guaranteedSum

	// Phase 2: water-fill the surplus among hungry classes. Sorting by
	// headroom lets a single pass compute the equal-increment fill level.
	type hungry struct {
		idx      int
		headroom float64 // target - guaranteed
	}
	var hs []hungry
	for i, c := range classes {
		if h := c.target() - alloc[i]; h > 0 {
			hs = append(hs, hungry{idx: i, headroom: h})
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].headroom < hs[j].headroom })

	for k := 0; k < len(hs) && remaining > 0; k++ {
		share := remaining / float64(len(hs)-k)
		give := hs[k].headroom
		if give > share {
			give = share
		}
		alloc[hs[k].idx] += give
		remaining -= give
	}
	return alloc
}

// drawClasses builds one class set for the reference comparison. Values
// come from a small grid so duplicated headrooms — ties, which an unstable
// sort may order either way — are the common case rather than a fluke, and
// every regime shows up: zero demand, demand above ceil, rate above demand,
// guarantees that over-commit the capacity.
func drawClasses(rng *rand.Rand) (capacity float64, classes []Class) {
	n := rng.Intn(65)
	step := []float64{1, 12.5, 1.0 / 3}[rng.Intn(3)]
	grid := func(k int) float64 { return float64(rng.Intn(k)) * step }
	classes = make([]Class, n)
	for i := range classes {
		rate := grid(6)
		classes[i] = Class{Rate: rate, Ceil: rate + grid(8), Demand: grid(20)}
		if rng.Intn(4) == 0 {
			classes[i].Demand = rng.Float64() * 300
		}
	}
	switch rng.Intn(8) {
	case 0:
		capacity = -float64(rng.Intn(2)) * 100 // 0 or negative
	case 1:
		capacity = rng.Float64() * 10 // over-committed for most n
	default:
		capacity = rng.Float64() * float64(n+1) * 20 * step
	}
	return capacity, classes
}

func TestShaperMatchesAllocateReference(t *testing.T) {
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var sh Shaper // one shaper across all draws: stale scratch must not leak
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for draw := 0; draw < 20000; draw++ {
			capacity, classes := drawClasses(rng)
			want := refAllocate(capacity, classes)
			for _, tc := range []struct {
				name      string
				got, want []float64
			}{
				{"Allocate", Allocate(capacity, classes), want},
				{"fill", slices.Clone(sh.fill(capacity, classes)), want},
			} {
				if len(tc.got) != len(tc.want) {
					t.Fatalf("seed %d draw %d %s: %d shares for %d classes", seed, draw, tc.name, len(tc.got), len(tc.want))
				}
				for i := range tc.want {
					if !sameBits(tc.got[i], tc.want[i]) {
						t.Fatalf("seed %d draw %d %s: class %d of %d got %v, reference %v (capacity %v, classes %v)",
							seed, draw, tc.name, i, len(classes), tc.got[i], tc.want[i], capacity, classes)
					}
				}
			}
			var wantAllocated, wantWanted float64
			for i, c := range classes {
				wantAllocated += want[i]
				wantWanted += c.target()
			}
			allocated, wanted := sh.Satisfied(capacity, classes)
			if !sameBits(allocated, wantAllocated) || !sameBits(wanted, wantWanted) {
				t.Fatalf("seed %d draw %d Satisfied: got (%v, %v), reference (%v, %v)", seed, draw, allocated, wanted, wantAllocated, wantWanted)
			}
		}
	}
}

// TestShaperReuseAllocatesNothing: once the scratch has grown to the widest
// server, shaping allocates nothing.
func TestShaperReuseAllocatesNothing(t *testing.T) {
	classes := genClasses(rand.New(rand.NewSource(7)), 1000)
	var sh Shaper
	sh.Satisfied(1000, classes)
	if n := testing.AllocsPerRun(100, func() { sh.Satisfied(1000, classes) }); n != 0 {
		t.Fatalf("Satisfied on warm scratch: %v allocs/op, want 0", n)
	}
}
