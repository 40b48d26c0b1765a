package experiments

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/ids"
	"vbundle/internal/obs"
	"vbundle/internal/rebalance"
	"vbundle/internal/serve"
	"vbundle/internal/simnet"
	"vbundle/internal/store"
	"vbundle/internal/workload"
)

// TestServeTraceRecordsBootSpans checks the boot instrumentation itself: a
// traced run must contain boot spans, shed instants and terminate instants,
// with the serve counters in the registry.
func TestServeTraceRecordsBootSpans(t *testing.T) {
	// All three optimizations on, a flash window, and terminates, so the
	// whole hot path is traced.
	p := ServeParams{
		Spec:            ScaledSpec(256),
		RatePerSec:      40,
		Duration:        15 * time.Second,
		FlashMultiplier: 6,
		FlashStart:      5 * time.Second,
		FlashLength:     4 * time.Second,
		Prewarm:         2,
		Cache:           true,
		Batch:           true,
		MaxInFlight:     64,
		Seed:            7,
		RunConfig:       RunConfig{Obs: obs.Config{Stream: true}},
	}
	out, err := RunServe(p)
	if err != nil {
		t.Fatal(err)
	}
	boots := 0
	for _, ev := range out.Trace.Events() {
		if ev.Kind == obs.KindBoot && ev.Phase == obs.PhaseBegin {
			boots++
		}
	}
	if boots == 0 {
		t.Fatal("no boot spans in trace")
	}
	counters := out.Trace.Registry().Snapshot()
	if counters["serve/placed"] != int64(out.Stats.Placed) {
		t.Fatalf("serve/placed counter = %d; stats say %d", counters["serve/placed"], out.Stats.Placed)
	}
	if counters["serve/shed"] != int64(out.Stats.Shed) {
		t.Fatalf("serve/shed counter = %d; stats say %d", counters["serve/shed"], out.Stats.Shed)
	}
}

// TestServeFlashCrowdSheds drives a flash crowd into a tight admission
// limit: load must shed with typed errors (the runner counts FlashShed only
// via errors.Is), and after the drain nothing may be leaked or unresolved.
func TestServeFlashCrowdSheds(t *testing.T) {
	out, err := RunServe(ServeParams{
		Spec:            ScaledSpec(256),
		RatePerSec:      40,
		Duration:        15 * time.Second,
		FlashMultiplier: 10,
		FlashStart:      5 * time.Second,
		FlashLength:     5 * time.Second,
		Cache:           true,
		Batch:           true,
		MaxInFlight:     32,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Shed == 0 || out.FlashShed == 0 {
		t.Fatalf("flash crowd shed nothing: %+v (flash %d/%d)", out.Stats, out.FlashShed, out.FlashRequests)
	}
	if out.FlashRequests == 0 {
		t.Fatal("no requests landed in the flash window")
	}
	if got := out.Stats.Requested - out.Stats.Shed; got != out.Stats.Placed+out.Stats.Failed {
		t.Fatalf("admitted %d != resolved %d", got, out.Stats.Placed+out.Stats.Failed)
	}
	if out.LeakedReservations != 0 {
		t.Fatalf("leaked reservations = %d", out.LeakedReservations)
	}
	if out.Unresolved != 0 {
		t.Fatalf("unresolved boots = %d", out.Unresolved)
	}
}

// TestServeCacheAndBatchingCutServingCost is the deterministic form of the
// benchmark headline: on a repeat-heavy stream the resolution cache plus
// batching must cut overlay messages per placement by at least 5× versus the
// ungated baseline. Messages are counted on the virtual network, so the
// ratio is exact and shard-invariant — no wall-clock flakiness.
func TestServeCacheAndBatchingCutServingCost(t *testing.T) {
	run := func(cache, batch bool) *ServeOutcome {
		out, err := RunServe(ServeParams{
			Spec:       ScaledSpec(512),
			RatePerSec: 200,
			Duration:   10 * time.Second,
			Prewarm:    2,
			Cache:      cache,
			Batch:      batch,
			Seed:       7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Stats.Placed == 0 {
			t.Fatalf("vacuous run (cache=%v batch=%v): %+v", cache, batch, out.Stats)
		}
		return out
	}
	base := run(false, false)
	opt := run(true, true)
	ratio := base.MsgsPerPlacement / opt.MsgsPerPlacement
	t.Logf("msgs/placement: baseline=%.2f cached+batched=%.2f ratio=%.1fx",
		base.MsgsPerPlacement, opt.MsgsPerPlacement, ratio)
	if ratio < 5 {
		t.Fatalf("cache+batching win %.1fx < 5x (baseline %.2f, optimized %.2f msgs/placement)",
			ratio, base.MsgsPerPlacement, opt.MsgsPerPlacement)
	}
}

// churnPropertyRun drives a randomized interleaving of boots and terminates
// over a rebalancing cluster and returns the final placement table plus the
// run's migration and cache-hit counts. Each operation settles before the
// next is issued, so the only concurrency left is the rebalancer's own
// migrations churning under the stream — exactly the interleaving the
// gateway's soft state must survive. The run itself holds what each piece of
// that state promises on its own: no boot fails or stays unresolved, no
// reservation leaks, no placement is lost across a restart, and every
// rendezvous still cached at the end is the node a fresh route resolves.
func churnPropertyRun(t *testing.T, servers int, seed int64, cache, faults bool) ([]PlacedVM, int, uint64) {
	t.Helper()
	opts := core.Options{
		Topology: ScaledSpec(servers),
		Seed:     seed,
		Rebalance: rebalance.Config{
			UpdateInterval:    time.Minute,
			RebalanceInterval: 2 * time.Minute,
		},
	}
	if faults {
		opts.Store = store.NewMem()
	}
	vb, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := serve.New(vb, serve.Config{Cache: cache, Batch: true})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.NewMix(DefaultServeMix())
	if err != nil {
		t.Fatal(err)
	}
	rsv := cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: 100}
	lim := cluster.Resources{CPU: 2, MemMB: 128, BandwidthMbps: 200}

	// The fault variant runs the same churn over a network where non-gateway
	// nodes blip (a crash whose old handler is re-attached: soft state kept)
	// and truly crash (blank handler, reboot from the durable store) at fixed
	// virtual times; the resolution cache must keep matching the uncached
	// run through every invalidation the recoveries cause.
	type window struct{ start, end time.Duration }
	var faultWindows []window
	if faults {
		const downtime = 30 * time.Second
		net := vb.Ring.Network()
		n := vb.Ring.Size()
		for k, f := range []struct {
			at    time.Duration
			crash bool
		}{
			{4 * time.Minute, true},
			{7 * time.Minute, false},
			{10 * time.Minute, true},
			{13 * time.Minute, false},
		} {
			// Distinct non-gateway victims (the gateway at node 0 holds the
			// boot path's query state).
			addr := simnet.Addr(1 + (k*37+11)%(n-1))
			node := vb.Ring.Node(int(addr))
			up := func() { net.Attach(addr, node) }
			if f.crash {
				up = func() { net.Restart(addr) }
			}
			vb.Engine.AtGlobal(f.at, func() { net.Crash(addr) })
			vb.Engine.AtGlobal(f.at+downtime, up)
			faultWindows = append(faultWindows, window{f.at, f.at + downtime})
		}
		vb.StartMaintenance(time.Minute)
	}

	// A cache hit legitimately shortens a query's virtual-time flight by a
	// few milliseconds. A boot still in flight at a rebalancer tick or a
	// migration completion would therefore observe capacity before the
	// event in one run and after it in the other, and the runs would
	// compare different clusters rather than the cache's placement
	// behaviour. Ops are issued only when no migration transfer is in
	// flight and no minute-aligned tick is imminent; the guard is a pure
	// function of simulation state, so both runs skip identically, and the
	// migrations still invalidate and repopulate cache entries between ops.
	clearTick := func() {
		for {
			st := vb.Migration.Stats()
			if st.Started != st.Completed+st.Failed {
				vb.RunFor(5 * time.Second)
				continue
			}
			// Ops must not be in flight across a fault window: a boot whose
			// query races a crash would resolve (or time out) differently in
			// the cached run. The windows are fixed virtual times, so both
			// runs skip identically.
			waited := false
			for _, w := range faultWindows {
				if now := vb.Now(); now >= w.start-5*time.Second && now < w.end+5*time.Second {
					vb.RunFor(w.end + 5*time.Second - now)
					waited = true
					break
				}
			}
			if waited {
				continue
			}
			phase := vb.Now() % time.Minute
			if phase == 0 {
				// Exactly on a boundary: the tick's events are scheduled
				// at this very instant and have not run yet.
				vb.RunFor(100 * time.Millisecond)
				continue
			}
			if time.Minute-phase < time.Second {
				vb.RunFor(time.Minute - phase + 100*time.Millisecond)
				continue
			}
			return
		}
	}

	// Standing population so rebalance has load to shuffle and terminates
	// have victims.
	mix.EachCustomer(func(customer string, _ workload.CustomerClass) {
		clearTick()
		if _, err := fe.Boot(customer, 4, rsv, lim); err != nil {
			t.Fatal(err)
		}
		vb.RunFor(2 * time.Second)
	})
	// Rebalancer ticks fire at multiples of the update interval from the
	// start instant; starting on a minute boundary keeps them aligned with
	// the boundaries clearTick guards.
	vb.RunFor(time.Minute - vb.Now()%time.Minute)
	vb.StartServices()

	// The op sequence is a pure function of the seed (drawn before any
	// outcome is observed), so the cached and uncached runs replay the
	// identical randomized schedule.
	rng := rand.New(rand.NewSource(seed * 2654435761))
	for i := 0; i < 240; i++ {
		clearTick()
		customer, group := mix.Pick(rng)
		if rng.Float64() < 0.4 {
			fe.Terminate(customer)
		} else if _, err := fe.Boot(customer, group, rsv, lim); err != nil {
			t.Fatal(err)
		}
		vb.RunFor(2 * time.Second)
	}
	vb.StopServices()
	if faults {
		vb.StopMaintenance()
	}
	vb.RunFor(5 * time.Minute)

	if got := fe.Unresolved(); got != 0 {
		t.Fatalf("unresolved boots = %d after drain", got)
	}
	if got := vb.Rebalancer.LeakedReservations(); got != 0 {
		t.Fatalf("leaked reservations = %d", got)
	}
	if faults && vb.Recovery.Restarts == 0 {
		t.Fatal("fault run restarted no nodes; the crash path would be untested")
	}
	if got := vb.Recovery.LostPlacements; got != 0 {
		t.Fatalf("placements lost across restarts = %d", got)
	}
	if st := fe.Stats(); st.Failed != 0 || st.Shed != 0 {
		t.Fatalf("%d boots failed, %d shed", st.Failed, st.Shed)
	}
	if c := fe.Cache(); c != nil {
		mix.EachCustomer(func(customer string, _ workload.CustomerClass) {
			home, ok := c.Peek(customer)
			if want := vb.Ring.ClosestLive(ids.HashString(customer)).Handle(); ok && home != want {
				t.Fatalf("cached rendezvous of %s is node %d, a fresh route resolves node %d", customer, home.Addr, want.Addr)
			}
		})
	}
	var placements []PlacedVM
	for _, customer := range vb.Cluster.Customers() {
		for _, vm := range vb.Cluster.VMsOf(customer) {
			if s, ok := vb.Cluster.LocationOf(vm.ID); ok {
				placements = append(placements, PlacedVM{Customer: customer, VM: vm.ID, Server: s})
			}
		}
	}
	var hits uint64
	if c := fe.Cache(); c != nil {
		hits = c.Stats().Hits
	}
	return placements, vb.Migration.Stats().Completed, hits
}

// PlacedVM is one row of a run's final placement table.
type PlacedVM struct {
	Customer string
	VM       cluster.VMID
	Server   int
}

// sameRows holds the cached run's final table against the uncached one's: the
// same (customer, VM) rows. Where a row's VM sits may differ — the walk memo
// resumes a walk where the classic one re-walks it, and says so: it may change
// where, never whether. That resuming changes nothing at all while nothing is
// freed is held on the walk itself (placement's
// TestResumedWalkPlacesWhereClassicWalkDoes).
func sameRows(t *testing.T, seed int64, ref, got []PlacedVM) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("seed %d: %d VMs placed with the cache on, %d with it off", seed, len(got), len(ref))
	}
	for i := range ref {
		if ref[i].Customer != got[i].Customer || ref[i].VM != got[i].VM {
			t.Fatalf("seed %d: row %d of %d: cached run holds %s vm %d, uncached run %s vm %d",
				seed, i, len(ref), got[i].Customer, got[i].VM, ref[i].Customer, ref[i].VM)
		}
	}
}

// TestServeCachedPlacementsMatchUncached is the cache-coherence property
// test: under a randomized interleaving of boots, terminates and
// rebalance-driven migrations, the run with the gateway's soft state on must
// end with the same VMs placed as the run with it off — every one of them,
// none failed, none leaked (churnPropertyRun) — while migrations keep
// invalidating and repopulating the entries, walk memos included. Runs at 512
// servers over several seeds, and at 2048 unless -short.
func TestServeCachedPlacementsMatchUncached(t *testing.T) {
	check := func(t *testing.T, servers int, seed int64) {
		t.Helper()
		ref, migrations, _ := churnPropertyRun(t, servers, seed, false, false)
		got, _, hits := churnPropertyRun(t, servers, seed, true, false)
		if migrations == 0 {
			t.Fatalf("seed %d: no migrations; the invalidation path is untested", seed)
		}
		if hits == 0 {
			t.Fatalf("seed %d: cache never hit; the fast path is untested", seed)
		}
		sameRows(t, seed, ref, got)
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("512-seed%d", seed), func(t *testing.T) { check(t, 512, seed) })
	}
	t.Run("2048", func(t *testing.T) {
		if testing.Short() {
			t.Skip("2048-server property run skipped with -short")
		}
		check(t, 2048, 11)
	})
}

// TestServeCachedPlacementsMatchUncachedUnderFaults re-runs the coherence
// property over a faulty network: nodes blip (kill/revive) and truly crash
// (blank handler, durable-store reboot, rejoin) mid-churn. The soft state
// must survive the extra invalidation traffic the recoveries cause — the same
// VMs end up placed with the cache on as with it off, and no placement or
// reservation is lost across the restarts.
func TestServeCachedPlacementsMatchUncachedUnderFaults(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("512-seed%d", seed), func(t *testing.T) {
			ref, migrations, _ := churnPropertyRun(t, 512, seed, false, true)
			got, _, hits := churnPropertyRun(t, 512, seed, true, true)
			if migrations == 0 {
				t.Fatalf("seed %d: no migrations; the invalidation path is untested", seed)
			}
			if hits == 0 {
				t.Fatalf("seed %d: cache never hit; the fast path is untested", seed)
			}
			sameRows(t, seed, ref, got)
		})
	}
}
