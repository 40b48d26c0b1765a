package core

import (
	"fmt"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/obs"
	"vbundle/internal/rebalance"
	"vbundle/internal/workload"
)

// TestServicesRestartMidRun stops and restarts every server's services twice
// mid-run: once between ticks, restarting before the stopped tickers' queued
// ticks are due, and once in the instant of a tick of both agent tickers,
// after it ran, so that each stopped ticker's queued tick falls due in the
// same instant as its restarted one's. The stopped tickers' ticks must fire
// nothing and the restarted ones once an interval, so the run is the one a
// fresh ticker a start gave: the role flips, lease grants and ends,
// migrations and messages below are what the tree printed before tickers
// became embedded handlers.
func TestServicesRestartMidRun(t *testing.T) {
	tr := obs.New()
	vb, err := New(Options{
		Topology: smallSpec(8, 6), // 48 servers
		Seed:     5,
		Trace:    tr,
		Rebalance: rebalance.Config{
			Threshold:         0.1,
			UpdateInterval:    5 * time.Minute,
			RebalanceInterval: 15 * time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for ci, customer := range []string{"alpha", "bravo", "charlie"} {
		for v := 0; v < 20; v++ {
			vm, _, err := vb.BootVM(customer,
				cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: 25},
				cluster.Resources{CPU: 4, MemMB: 512, BandwidthMbps: 800})
			if err != nil {
				t.Fatalf("boot %s #%d: %v", customer, v, err)
			}
			vb.Workloads.Attach(vm.ID, workload.Sine(80, 70, 2*time.Hour, float64(ci)*2.1))
		}
	}
	vb.Workloads.Start(5 * time.Minute)
	vb.StartServices()
	vb.RunFor(37*time.Minute + 30*time.Second)
	vb.StopServices()
	vb.RunFor(90 * time.Second) // the stopped tickers' next ticks are due at 40m
	vb.StartServices()
	vb.RunFor(15 * time.Minute) // to 54m: an update and a rebalance tick
	vb.StopServices()
	vb.StartServices()
	vb.RunFor(time.Hour)
	vb.StopServices()
	vb.Workloads.Stop()
	vb.Engine.Run()

	var flips, grants, ends int
	for _, ev := range tr.Events() {
		switch {
		case ev.Kind == obs.KindRoleFlip:
			flips++
		case ev.Kind == obs.KindLease && ev.Phase == obs.PhaseBegin:
			grants++
		case ev.Kind == obs.KindLease && ev.Phase == obs.PhaseEnd:
			ends++
		}
	}
	msgs := 0
	for _, c := range vb.Ring.Network().AllCounters() {
		msgs += c.MsgsSent
	}
	got := fmt.Sprintf("%d role flips, %d lease grants, %d lease ends, %+v, %d migrations, %d messages, ended at %v",
		flips, grants, ends, vb.Rebalancer.ReserveStats(), vb.Migration.Stats().Completed, msgs, vb.Now())
	t.Log(got)
	const want = "131 role flips, 62 lease grants, 62 lease ends, " +
		"{Accepted:62 Renewed:0 Released:62 Expired:0 UnknownRelease:0 DuplicateRelease:0 OrphanReleases:0 Adopted:0}, " +
		"62 migrations, 5566 messages, ended at 2h9m0.42s"
	if got != want {
		t.Fatalf("the run after two restarts gives\n%s\nwant\n%s", got, want)
	}
}
