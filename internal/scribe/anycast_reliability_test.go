package scribe

import (
	"testing"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/simnet"
)

// orphanLog is an application that records the orphaned accepts scribe hands
// it as its node's OrphanAcceptor.
type orphanLog struct {
	pastry.BaseApp
	fn func(group ids.Id, payload simnet.Message, by pastry.NodeHandle)
}

func (o *orphanLog) OrphanAccepted(group ids.Id, payload simnet.Message, by pastry.NodeHandle) {
	o.fn(group, payload, by)
}

// TestLateAcceptAfterTimeoutIsOrphaned is the regression test for the
// reservation-leak bug: a member accepts an any-cast, but the verdict
// reaches the originator only after its timeout already reported failure.
// The accept must surface at the originator node's OrphanAcceptor so the
// acceptor's reservation can be released — before the fix it was silently
// dropped.
func TestLateAcceptAfterTimeoutIsOrphaned(t *testing.T) {
	f := newFixture(t, 2, 4)
	group := GroupKey("late-accept")
	for _, s := range f.scribes[:4] {
		s.Join(group, Handlers{
			OnAnycast: func(ids.Id, simnet.Message, pastry.NodeHandle) bool { return true },
		})
	}
	f.engine.Run()

	origin := f.scribes[5]
	// Expire the query long before any network hop can complete, with no
	// retry budget, so the genuine accept arrives strictly after failure
	// was reported.
	origin.AnycastTimeout = time.Microsecond
	origin.AnycastRetries = 0

	var orphanGroup ids.Id
	var orphanPayload simnet.Message
	var orphanBy pastry.NodeHandle
	orphans := 0
	origin.Node().Register("orphans", &orphanLog{fn: func(g ids.Id, payload simnet.Message, by pastry.NodeHandle) {
		orphans++
		orphanGroup, orphanPayload, orphanBy = g, payload, by
	}})

	var result *AnycastResult
	origin.Anycast(group, "reserve 100 Mbps", func(r AnycastResult) { result = &r })
	f.engine.Run()

	if result == nil || result.Accepted {
		t.Fatalf("originator verdict = %+v, want timeout failure", result)
	}
	if orphans != 1 {
		t.Fatalf("orphan accepts = %d, want 1", orphans)
	}
	if orphanGroup != group || orphanPayload != "reserve 100 Mbps" || orphanBy.IsNil() {
		t.Fatalf("orphan handed (%s, %v, %v), want original query and acceptor",
			orphanGroup.Short(), orphanPayload, orphanBy)
	}
	if _, got := origin.AnycastStats(); got != 1 {
		t.Fatalf("orphan counter = %d, want 1", got)
	}
}

// TestAnycastRetryRecoversFromLoss drops the first attempt's query on the
// wire and verifies the originator resends after the timeout and still gets
// an accepted verdict.
func TestAnycastRetryRecoversFromLoss(t *testing.T) {
	f := newFixture(t, 2, 4)
	group := GroupKey("lossy-query")
	for _, s := range f.scribes[:4] {
		s.Join(group, Handlers{
			OnAnycast: func(ids.Id, simnet.Message, pastry.NodeHandle) bool { return true },
		})
	}
	f.engine.Run()

	origin := f.scribes[5]
	origin.AnycastTimeout = 50 * time.Millisecond
	// The originator is down for the first 25ms, so everything it sends is
	// lost: attempt 1 vanishes, the retry at 50ms sails through.
	net := f.ring.Network()
	addr := origin.Node().Addr()
	start := f.engine.Now()
	net.Kill(addr)
	f.engine.AtGlobal(start+25*time.Millisecond, func() { net.Revive(addr) })

	var result *AnycastResult
	origin.Anycast(group, "q", func(r AnycastResult) { result = &r })
	f.engine.Run()

	if result == nil || !result.Accepted {
		t.Fatalf("verdict = %+v, want accepted after retry", result)
	}
	if retried, _ := origin.AnycastStats(); retried != 1 {
		t.Fatalf("retries = %d, want 1", retried)
	}
}

// TestResolvedAnycastsLeaveNoDeadTimers verifies the shared timeout wheel:
// resolved any-casts must not each park a dead timer in the engine queue
// until their (long-gone) deadline.
func TestResolvedAnycastsLeaveNoDeadTimers(t *testing.T) {
	f := newFixture(t, 2, 4)
	group := GroupKey("wheel")
	for _, s := range f.scribes[:4] {
		s.Join(group, Handlers{
			OnAnycast: func(ids.Id, simnet.Message, pastry.NodeHandle) bool { return true },
		})
	}
	f.engine.Run()

	origin := f.scribes[5]
	const n = 50
	accepted := 0
	for i := 0; i < n; i++ {
		// Space the queries out enough for each to resolve (network hops are
		// ms-scale) while staying far below the 10s timeout horizon.
		origin.Anycast(group, i, func(r AnycastResult) {
			if r.Accepted {
				accepted++
			}
		})
		f.engine.RunUntil(time.Duration(i+1) * 100 * time.Millisecond)
	}
	if accepted != n {
		t.Fatalf("accepted %d of %d any-casts", accepted, n)
	}
	if len(origin.orig.pending) != 0 {
		t.Fatalf("%d any-casts still pending after all resolved", len(origin.orig.pending))
	}
	// The wheel prunes resolved entries on every push, so it never holds
	// more than the single in-flight deadline.
	if len(origin.orig.wheel) > 1 {
		t.Fatalf("wheel holds %d entries, want <= 1", len(origin.orig.wheel))
	}
	// One armed wheel event at most may linger; the old per-any-cast timers
	// would leave one dead event in the queue for each resolved query.
	if p := f.engine.Pending(); p > 1 {
		t.Fatalf("%d events pending after %d resolved any-casts, want <= 1", p, n)
	}
}
