package main

import (
	"bytes"
	"encoding/json"

	"vbundle/internal/obs"
	"vbundle/internal/simnet"
)

// collectCounts reads the layer-neutral work counts of a traced iteration:
// the trace registry (counters, gauges, histogram quantiles), the recorded
// events by kind, and the network's traffic totals.
func collectCounts(o *outcome, tr *obs.Trace, net *simnet.Network) {
	c := o.counts
	reg := tr.Registry().Snapshot()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	c["pastry.deliveries"] = float64(reg["pastry/deliveries"])
	c["pastry.route_hops"] = float64(reg["pastry/route_hops"])
	c["pastry.hops_p50"] = float64(reg["pastry/hops/p50"])
	c["pastry.hops_p99"] = float64(reg["pastry/hops/p99"])
	c["scribe.joins_handled"] = float64(reg["scribe/joins_handled"])
	c["scribe.multicasts_relayed"] = float64(reg["scribe/multicasts_relayed"])
	c["scribe.anycasts_seen"] = float64(reg["scribe/anycasts_seen"])
	c["scribe.anycasts_retried"] = float64(reg["scribe/anycasts_retried"])
	c["scribe.orphan_accepts"] = float64(reg["scribe/orphan_accepts"])
	c["scribe.anycast_p99_ms"] = ms(reg["scribe/anycast_ns/p99"])
	c["rebalance.lease_hold_p99_ms"] = ms(reg["rebalance/lease_hold_ns/p99"])
	c["migration.duration_p99_ms"] = ms(reg["migration/duration_ns/p99"])

	// The queue-depth histogram is diagnostic: the snapshot leaves it out,
	// the JSON dump carries it. One depth sample is recorded per pop, so
	// its count is the number of events the engine executed.
	var dump bytes.Buffer
	var full map[string]int64
	if err := tr.Registry().WriteJSON(&dump); err == nil && json.Unmarshal(dump.Bytes(), &full) == nil {
		c["sim.events"] = float64(full["sim/queue_depth/count"])
		c["sim.queue_depth_p99"] = float64(full["sim/queue_depth/p99"])
	}

	var byKind [256]int
	events := tr.Events()
	for i := range events {
		if events[i].Phase != obs.PhaseEnd {
			byKind[events[i].Kind]++
		}
	}
	c["obs.events_recorded"] = float64(len(events))
	c["scribe.anycast_steps"] = float64(byKind[obs.KindAnycastStep])
	c["aggregation.folds"] = float64(byKind[obs.KindAggUpdate])
	c["rebalance.role_flips"] = float64(byKind[obs.KindRoleFlip])
	c["simnet.msgs_dropped"] = float64(byKind[obs.KindDrop])

	msgs, bytesSent := netTotals(net)
	c["simnet.msgs_sent"] = float64(msgs)
	c["simnet.bytes_sent"] = float64(bytesSent)
}
