#!/bin/sh
# CI gate: vet, build, full test suite, then the race detector over the
# short-mode suite (the parallel experiment harness is the only concurrent
# code; -short keeps the race pass fast while still driving it).
set -eu

cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

# The benchmark is a module of its own (benchmark/go.mod), so ./... above
# never reaches it: vet and test it here, against this tree's internal/
# packages, or an API change there breaks the gate's own binary unseen.
echo "== benchmark module: go vet + go test"
go vet -C benchmark ./...
go test -C benchmark ./...

echo "== go test -race -short"
go test -race -short ./...

# Allocation gates, exact under AllocsPerRun, each required by name to have
# run and passed, not merely not to have failed (every free list in the tree
# is deterministic, so they hold under -race too): a 256-hop spill walk
# allocates no more than a boot admitted at its rendezvous; a warm
# BandwidthSatisfaction sweep, a SetLocal+Global pair on a subscribed topic, a
# warm round of 4096 five-minute tickers (the timing wheel hands its slot
# backings on, level to level and round to round) and a warm aggregation
# round of unchanged values (every push a recycled shell in a recycled
# envelope) allocate nothing, and a round of changed values one fold list a
# re-folded subtree.
alloc_gate() {
	go test -count=1 -v -run "^$1\$" "$2" > /tmp/vb-alloc-gate.txt \
		|| { cat /tmp/vb-alloc-gate.txt; exit 1; }
	grep -q -- "--- PASS: $1" /tmp/vb-alloc-gate.txt \
		|| { echo "FAIL: allocation gate $1 did not run"; cat /tmp/vb-alloc-gate.txt; exit 1; }
	rm -f /tmp/vb-alloc-gate.txt
}
echo "== allocation gates (spill walk per hop, shaper sweep, topic accessors, periodic timers, aggregation round: 0 allocations)"
alloc_gate TestSpillWalkAllocatesNothingPerHop ./internal/placement/
alloc_gate TestBandwidthSatisfactionAllocatesNothing ./internal/core/
alloc_gate TestSetLocalGlobalAllocateNothing ./internal/aggregation/
alloc_gate TestWarmRoundAllocatesNoMessages ./internal/aggregation/
alloc_gate TestPeriodicTimersAllocateNothing ./internal/sim/
# What every server holds of each layer, by size class (memregress_test.go
# gates their sum at 32768 servers).
alloc_gate TestNodeSizeCeiling ./internal/pastry/
alloc_gate TestScribeSizeCeiling ./internal/scribe/
alloc_gate TestTopicStateSizeCeiling ./internal/aggregation/

# The fault-injection paths (lease expiry, release retry, anycast retry,
# orphan release, crash-restart rejoin) under the race detector, explicitly
# and un-shortened. internal/store and internal/core ride along for the
# durable-store and restarter paths.
echo "== resilience tests -race"
go test -race -run 'Resilience|NoLeak|LeaseExpiry|Orphan|Anycast|Fault|Dead|Death|Crash|Restart|Rejoin|Adopt|Store' \
	./internal/rebalance/ ./internal/scribe/ ./internal/simnet/ \
	./internal/migration/ ./internal/experiments/ ./internal/store/ \
	./internal/core/

# The sharded engine and shard-aware delivery under the race detector,
# explicitly and un-shortened: these are the packages where a data race
# would also be a determinism bug.
echo "== shard packages -race"
go test -race ./internal/sim/ ./internal/simnet/

# The two structures under every event against the models that pin them (a
# container/heap for the timing wheel, the whole-inbox scan for the
# due-ordered inbox), the recycled push shells under loss, a crash and a
# leave on four shard goroutines, two pushes of one sender on the wire
# together, and the consider memo against the full inserts: all seeds, never
# from the test cache.
echo "== queue, inbox, shell and memo model equivalence -race"
go test -race -count=1 -run 'TestQueueEquivalence|TestInboxMatchesScanModel|TestShellsAreBankedOnce|TestOverlappingPushesKeepTheirValues|TestConsiderMemoMatchesFullConsider' \
	./internal/sim/ ./internal/simnet/ ./internal/aggregation/ ./internal/pastry/

# One small fault sweep end to end: vb-faults exits nonzero if any run
# leaks a reservation or a drop rate fails to parse.
echo "== vb-faults smoke"
go run ./cmd/vb-faults -servers 64 -duration 30 -lease 4 \
	-drop-rates 0,0.02 -seed 5 > /dev/null

# The same sweep with -crash: true crashes (blank handler, durable-store
# reboot, rejoin) plus one node left dead. The binary exits nonzero if any
# run loses a VM or leaks a reservation across the restart — and the run
# must be byte-identical serial vs. sharded.
echo "== vb-faults crash-restart smoke (gate + shard diff)"
go build -o /tmp/vb-faults-ci ./cmd/vb-faults
/tmp/vb-faults-ci -crash -servers 64 -duration 30 -lease 4 \
	-drop-rates 0,0.02 -kill 2 -crash-forever 1 -restart-after 5 \
	-seed 5 -workers 1 > /tmp/vb-crash0.txt
/tmp/vb-faults-ci -crash -servers 64 -duration 30 -lease 4 \
	-drop-rates 0,0.02 -kill 2 -crash-forever 1 -restart-after 5 \
	-seed 5 -workers 1 -shards 4 > /tmp/vb-crash4.txt
diff /tmp/vb-crash0.txt /tmp/vb-crash4.txt
grep -q 'recovered fully' /tmp/vb-crash0.txt || { echo "FAIL: crash-restart gate"; exit 1; }
rm -f /tmp/vb-faults-ci /tmp/vb-crash0.txt /tmp/vb-crash4.txt

# The shuffling loop end to end — aggregation rounds, any-cast, leases,
# migrations, and the per-minute shaper accounting behind Fig 11's curves —
# must print the same bytes serial and sharded.
echo "== sharded determinism diff (Fig 11, 256 servers, serial vs 4 shards)"
go build -o /tmp/vb-rebalance-ci ./cmd/vb-rebalance
/tmp/vb-rebalance-ci -fig 11 -servers 256 > /tmp/vb-fig11-0.txt
/tmp/vb-rebalance-ci -fig 11 -servers 256 -shards 4 > /tmp/vb-fig11-4.txt
diff /tmp/vb-fig11-0.txt /tmp/vb-fig11-4.txt
rm -f /tmp/vb-rebalance-ci /tmp/vb-fig11-0.txt /tmp/vb-fig11-4.txt

# Determinism gate for the parallel single-run engine: the same Fig. 14
# experiment at -shards 1 and -shards 4 must print byte-identical metrics.
# Any divergence is a lost event, a reordered merge, or a stray rand draw —
# all fail here before the (slower) equivalence property tests would.
echo "== sharded determinism diff (Fig 14, 512 servers)"
go build -o /tmp/vb-overhead-ci ./cmd/vb-overhead
/tmp/vb-overhead-ci -fig 14 -max-servers 512 -shards 1 -workers 1 > /tmp/vb-shards1.txt
/tmp/vb-overhead-ci -fig 14 -max-servers 512 -shards 4 -workers 1 > /tmp/vb-shards4.txt
diff /tmp/vb-shards1.txt /tmp/vb-shards4.txt

# The same gate at 2048 servers and the widest shard spread (1 vs 8): the
# dynamically-sized drain windows stretch furthest at larger rings — a
# lookahead bug that 512 servers and 4 shards would mask (few in-window
# events per shard) has to survive this point too.
echo "== sharded determinism diff (Fig 14, 2048 servers, dynamic windows, 1 vs 8 shards)"
/tmp/vb-overhead-ci -fig 14 -max-servers 2048 -shards 1 -workers 1 > /tmp/vb-shards1.txt
/tmp/vb-overhead-ci -fig 14 -max-servers 2048 -shards 8 -workers 1 > /tmp/vb-shards4.txt
diff /tmp/vb-shards1.txt /tmp/vb-shards4.txt

# The smallest of the new ladder rungs (524288 servers), single point via
# -min-servers so the gate does not pay for the whole ladder below it. The
# profile-driven allocation work (prefix-group routing-table fill, sorted
# inline-backed slices replacing per-node maps) rewrote the hottest
# construction paths; this is the proof at scale that none of it perturbed
# one byte of virtual time across shard counts.
echo "== sharded determinism diff (Fig 14, 524288 servers, single point, 1 vs 4 shards)"
/tmp/vb-overhead-ci -fig 14 -min-servers 524288 -max-servers 524288 -shards 1 -workers 1 > /tmp/vb-shards1.txt
/tmp/vb-overhead-ci -fig 14 -min-servers 524288 -max-servers 524288 -shards 4 -workers 1 > /tmp/vb-shards4.txt
diff /tmp/vb-shards1.txt /tmp/vb-shards4.txt

# Heap-profile smoke on the 32768-server point: -memprofile must produce a
# non-empty pprof through internal/profiling while the arena-backed ring
# builds and runs. Catches profiling-path rot and any allocation explosion
# at the scale the memory-layout work targets.
echo "== heap profile smoke (Fig 14, 32768 servers)"
/tmp/vb-overhead-ci -fig 14 -max-servers 32768 -shards 4 -workers 1 \
	-memprofile /tmp/vb-heap.pprof > /dev/null
test -s /tmp/vb-heap.pprof || { echo "FAIL: empty heap profile"; exit 1; }
rm -f /tmp/vb-heap.pprof

# overhead_gate LABEL OFF_CMD ON_CMD: an observer (flight recorder, series
# sampler) must stay within 5% wall time of the same run without it — min of
# five interleaved runs a side, to shave scheduler noise; a 2 ms absolute
# floor keeps timer jitter from failing short runs — and must not change one
# byte of stdout: observers watch the simulation, they never participate.
overhead_gate() {
	min_off=
	min_on=
	for i in 1 2 3 4 5; do
		start=$(date +%s%N)
		$2 > /tmp/vb-gate-off.txt
		us=$(( ($(date +%s%N) - start) / 1000 ))
		if [ -z "$min_off" ] || [ "$us" -lt "$min_off" ]; then min_off=$us; fi

		start=$(date +%s%N)
		$3 > /tmp/vb-gate-on.txt
		us=$(( ($(date +%s%N) - start) / 1000 ))
		if [ -z "$min_on" ] || [ "$us" -lt "$min_on" ]; then min_on=$us; fi
	done
	diff /tmp/vb-gate-off.txt /tmp/vb-gate-on.txt
	awk -v label="$1" -v off="$min_off" -v on="$min_on" 'BEGIN {
		printf "%s off %.1f ms, on %.1f ms (%+.1f%%)\n", label, off / 1000.0, on / 1000.0, (on - off) * 100.0 / off
		if (on > off * 1.05 && on > off + 2000) { print "FAIL: " label " regresses wall time beyond 5%"; exit 1 }
	}'
	rm -f /tmp/vb-gate-off.txt /tmp/vb-gate-on.txt
}

# Tracing overhead gate: the always-on ring recorder against a recording-free
# run. It runs on the single 8192-server Fig 14 point (0.09-0.15 s), not on
# the 512-server ladder it used to: that is a 13-17 ms process, where PR 12
# recorded a +31% reading and where only the 2 ms floor decided the gate.
# Here the 5% decides, and the recorder's own cost at this point is 4-7%
# (see CHANGES.md, PR 13): on a busy box rerun this gate alone.
echo "== tracing overhead gate (Fig 14, 8192 servers, single point, ring recorder)"
overhead_gate "ring recorder" \
	"/tmp/vb-overhead-ci -fig 14 -min-servers 8192 -max-servers 8192 -workers 1" \
	"/tmp/vb-overhead-ci -fig 14 -min-servers 8192 -max-servers 8192 -workers 1 -trace-ring 4096"
rm -f /tmp/vb-overhead-ci /tmp/vb-shards1.txt /tmp/vb-shards4.txt

# Serving-layer smoke: a Poisson stream and a flash crowd at 512 servers
# end to end through vb-serve (the binary exits nonzero on any leaked
# reservation or unresolved boot), then the sharded-determinism gate on the
# serving path — the rendered serve report at -shards 1 and -shards 4 must
# be byte-identical. The hygiene lines are also asserted explicitly so a
# future change to the binary's exit behaviour cannot silently weaken this.
echo "== vb-serve smoke (Poisson + flash crowd, 512 servers, shard diff)"
go build -o /tmp/vb-serve-ci ./cmd/vb-serve
/tmp/vb-serve-ci -servers 512 -rate 100 -duration 20s -prewarm 2 \
	-cache -batch -seed 7 -shards 1 > /tmp/vb-serve1.txt
/tmp/vb-serve-ci -servers 512 -rate 100 -duration 20s -prewarm 2 \
	-cache -batch -seed 7 -shards 4 > /tmp/vb-serve4.txt
diff /tmp/vb-serve1.txt /tmp/vb-serve4.txt
grep -q '^leaked reservations: 0$' /tmp/vb-serve1.txt || { echo "FAIL: leaked reservations"; exit 1; }
grep -q '^unresolved boots: 0$' /tmp/vb-serve1.txt || { echo "FAIL: unresolved boots"; exit 1; }
/tmp/vb-serve-ci -servers 512 -rate 100 -duration 20s -prewarm 2 \
	-cache -batch -flash-mult 10 -flash-start 6s -flash-len 5s -max-inflight 64 \
	-seed 7 > /tmp/vb-serve-flash.txt
grep -q 'flash window: requests=[0-9]* shed=[1-9]' /tmp/vb-serve-flash.txt || { echo "FAIL: flash crowd shed nothing"; exit 1; }
grep -q '^leaked reservations: 0$' /tmp/vb-serve-flash.txt || { echo "FAIL: leaked reservations under flash"; exit 1; }
grep -q '^unresolved boots: 0$' /tmp/vb-serve-flash.txt || { echo "FAIL: unresolved boots under flash"; exit 1; }
rm -f /tmp/vb-serve-ci /tmp/vb-serve1.txt /tmp/vb-serve4.txt /tmp/vb-serve-flash.txt

# Alloc-ceiling smoke: the 2048-server Fig. 14 point with -benchmem, gated
# on allocs/op and B/op, both read from the same line. Allocation counts and
# bytes are deterministic (unlike wall time on the shared CI box; B/op moves
# in its last two digits), so this catches a reintroduced per-node map or
# closure, a table entry that grows back from a 4-byte ref to a 24-byte
# handle (11.77 MB/op), or an eight-slot inbox chunk and the 584-byte node
# (7.69 MB/op), at the cheapest rung that still builds a real
# multi-rack ring — without the 32768-server bytes/server test. Current cost
# is 35.4k allocs and 5.76 MB (2810 B/server); the ceilings leave ~25% and
# 20% headroom.
echo "== alloc ceiling smoke (Fig 14, 2048 servers)"
go test -run '^$' -bench 'BenchmarkFig14Scale/servers=2048$' -benchtime 1x -benchmem . > /tmp/vb-alloc.txt
allocs=$(awk '/servers=2048/ {print $(NF-1)}' /tmp/vb-alloc.txt)
bytes=$(awk '/servers=2048/ {print $(NF-3)}' /tmp/vb-alloc.txt)
[ -n "$allocs" ] && [ -n "$bytes" ] || { echo "FAIL: no allocs/op and B/op parsed"; cat /tmp/vb-alloc.txt; exit 1; }
[ "$allocs" -le 44200 ] || { echo "FAIL: $allocs allocs/op at 2048 servers exceeds ceiling 44200"; exit 1; }
[ "$bytes" -le 6910000 ] || { echo "FAIL: $bytes B/op at 2048 servers exceeds ceiling 6910000"; exit 1; }
echo "at 2048 servers: $allocs allocs/op (ceiling 44200), $bytes B/op (ceiling 6910000)"
rm -f /tmp/vb-alloc.txt

# One iteration of every benchmark (a few seconds): catches benchmarks that
# panic or fail to build without measuring anything. -short skips the
# 2048–8192 scale sweeps.
echo "== bench smoke (-benchtime 1x)"
go test -short -run '^$' -bench . -benchtime 1x ./... > /dev/null

# Online-audit gate: the invariant auditor sweeps a real 512-server Fig. 14
# run (liveness coherence under churn) and a full vb-serve stack (lease
# balance, lease expiry, placement agreement, liveness) and must find zero
# violations across a healthy run's sweeps. The auditor is read-only and
# reports to stderr only, so stdout must stay byte-identical with -audit on
# and off — the same zero-interference contract the tracer holds.
echo "== online audit gate (Fig 14 512 + vb-serve, zero violations, stdout diff)"
go build -o /tmp/vb-overhead-ci ./cmd/vb-overhead
go build -o /tmp/vb-serve-ci ./cmd/vb-serve
/tmp/vb-overhead-ci -fig 14 -min-servers 512 -max-servers 512 -workers 1 \
	> /tmp/vb-audit-off.txt
/tmp/vb-overhead-ci -fig 14 -min-servers 512 -max-servers 512 -workers 1 \
	-audit -audit-every 10ms > /tmp/vb-audit-on.txt 2> /tmp/vb-audit.err
diff /tmp/vb-audit-off.txt /tmp/vb-audit-on.txt
grep -Eq '^audit: sweeps=[1-9][0-9]* violations=0$' /tmp/vb-audit.err \
	|| { echo "FAIL: fig14 audit gate"; cat /tmp/vb-audit.err; exit 1; }
/tmp/vb-serve-ci -servers 512 -rate 100 -duration 20s -prewarm 2 \
	-cache -batch -seed 7 > /tmp/vb-audit-off.txt
/tmp/vb-serve-ci -servers 512 -rate 100 -duration 20s -prewarm 2 \
	-cache -batch -seed 7 -audit > /tmp/vb-audit-on.txt 2> /tmp/vb-audit.err
diff /tmp/vb-audit-off.txt /tmp/vb-audit-on.txt
grep -Eq '^audit: sweeps=[1-9][0-9]* violations=0$' /tmp/vb-audit.err \
	|| { echo "FAIL: vb-serve audit gate"; cat /tmp/vb-audit.err; exit 1; }

# Sampler overhead gate: the virtual-time series sampler at a 1 s cadence
# against an unsampled vb-serve run. The stream runs at rate 200, not the 100
# of the smokes above: since the spill walk went from quadratic to linear the
# rate-100 run is a 40 ms process, too short to hold a ~4 ms sampler against
# at 5% (the sampler's cost is per boundary, not per event); rate 200 is
# ~150 ms of serving, where 5% again means what it meant.
echo "== sampler overhead gate (vb-serve 512 servers, rate 200, 1s cadence)"
overhead_gate "series sampler" \
	"/tmp/vb-serve-ci -servers 512 -rate 200 -duration 20s -prewarm 2 -cache -batch -seed 7" \
	"/tmp/vb-serve-ci -servers 512 -rate 200 -duration 20s -prewarm 2 -cache -batch -seed 7 -sample-every 1s"
rm -f /tmp/vb-overhead-ci /tmp/vb-serve-ci /tmp/vb-audit-off.txt \
	/tmp/vb-audit-on.txt /tmp/vb-audit.err

echo "CI OK"
