#!/bin/sh
# CI gate. Every step is one command and every check is a Go test: the
# determinism byte-diffs, smokes, audit and hygiene gates that used to be
# "build, run twice, diff, grep" here are rows of one table, TestGates in
# cmd/vb/gates_test.go, and run with `go test ./...` below. Nothing in the
# tree passes or fails on wall time.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt, go vet"
test -z "$(gofmt -l .)"
go vet ./...

echo "== go build"
go build ./...

# The constructor rule (DESIGN.md): every stack above pastry is built by
# core.NewOverlay or core.New; only layer tests below core build by hand.
echo "== one stack constructor"
if grep -rn 'pastry.NewRing(' --include='*.go' internal cmd examples |
	grep -v _test.go | grep -vE '^internal/(pastry|core)/'; then exit 1; fi

# Includes the gates table with its long rows (the 524288-server shard pair,
# ≈ 17 s and ≈ 1.5 GB; the 32768-server heap-profile row), the two Fig 14
# allocation ceilings in memregress_test.go and the fuzz targets' seeds.
echo "== go test"
go test ./...

# The benchmark is a module of its own (benchmark/go.mod), so ./... above
# never reaches it: vet and test it here, against this tree's internal/
# packages, or an API change there breaks the gate's own binary unseen.
echo "== benchmark module: go vet + go test"
go vet -C benchmark ./...
go test -C benchmark ./...

# -short skips the gates table's long rows and the 32768-server ceilings.
echo "== go test -race -short"
go test -race -short ./...

# The fault-injection paths (lease expiry, release retry, anycast retry,
# orphan release, crash-restart rejoin) under the race detector, explicitly
# and un-shortened. internal/store (the MemStore contract) and internal/core
# ride along for the durable-store and restarter paths.
echo "== resilience tests -race"
go test -race -run 'Resilience|NoLeak|LeaseExpiry|Orphan|Anycast|Fault|Dead|Death|Crash|Restart|Rejoin|Adopt|Store' \
	./internal/rebalance/ ./internal/scribe/ ./internal/simnet/ \
	./internal/migration/ ./internal/experiments/ ./internal/store/ \
	./internal/core/

# The sharded engine and shard-aware delivery, un-shortened: the packages
# where a data race would also be a determinism bug.
echo "== shard packages -race"
go test -race ./internal/sim/ ./internal/simnet/

# The two structures under every event against the models that pin them (a
# container/heap for the timing wheel, the whole-inbox scan for the
# due-ordered inbox), the recycled push shells under loss, a crash and a
# leave on four shard goroutines, two pushes of one sender on the wire
# together, the consider memo against the full inserts, the leaf-set insert
# against the search-insert-truncate it replaced, the any-cast's child
# search against the scan, a run with every banked envelope and push shell
# overwritten after every event against the same run untouched, and 400
# lossy rounds that must bank what the network drops: all seeds, never from
# the test cache.
echo "== queue, inbox, shell, memo, leaf, search and poison model equivalence -race"
go test -race -count=1 -run 'TestQueueEquivalence|TestInboxMatchesScanModel|TestShellsAreBankedOnce|TestOverlappingPushesKeepTheirValues|TestConsiderMemoMatchesFullConsider|TestLeafInsertMatchesSortedModel|TestAnycastSearchMatchesScan|TestPoisonedBanksChangeNothing|TestLossyRoundsKeepShellsBounded' \
	./internal/sim/ ./internal/simnet/ ./internal/aggregation/ ./internal/pastry/ ./internal/scribe/

# Fifteen gates that must have run and passed by name, not merely not failed
# (a renamed or skipped test fails the count). Ten count objects: a 256-hop
# spill walk allocates no more than a boot admitted at its rendezvous; a warm
# serving step (a boot, its query's completion and two terminates, under each
# of the four cache/batch settings), a warm BandwidthSatisfaction sweep, a
# SetLocal+Global pair on a subscribed topic, a warm round of 4096
# five-minute tickers and a warm aggregation round of unchanged values
# allocate nothing (a round of changed values: one fold list a re-folded
# subtree); a cold tree build and first round allocate a server's fold list
# and none of its messages (at most 1.1 objects a server past 4096); each
# node past 4096 of an overlay costs a slab chunk's share of an object (under
# 0.02), and core.New a twentieth of one a server beyond the overlay;
# StartServices allocates a server's second group state and none of its
# plumbing or messages (at most 1.1 objects a server between 1024 and 2048
# servers), and a handler event and an embedded ticker's start and stop
# allocate nothing. Three are what every server holds of each layer, to the
# byte: the node comes out of one []Node, the Scribe and the topic out of
# their engine's slabs. Two hold the API to its callers: every field of a
# Config, Options or …Params struct is set somewhere besides its own
# withDefaults, and every export of internal/ is used somewhere besides its
# own package's tests.
echo "== allocation, size, knob and export gates, PASS by name (15)"
test "$(go test -count=1 -v -run '^(TestSpillWalkAllocatesNothingPerHop|TestBootPathAllocatesNothing|TestBandwidthSatisfactionAllocatesNothing|TestSetLocalGlobalAllocateNothing|TestWarmRoundAllocatesNoMessages|TestFirstRoundAllocatesOnlyFolds|TestPeriodicTimersAllocateNothing|TestConstructionAllocatesPerLayer|TestCoreConstructionAllocatesPerLayer|TestStartServicesAllocatesOnlyMessages|TestNodeSizeCeiling|TestScribeSizeCeiling|TestTopicStateSizeCeiling|TestEveryKnobHasASetter|TestEveryExportHasACaller)$' \
	./internal/placement/ ./internal/serve/ ./internal/core/ ./internal/aggregation/ \
	./internal/sim/ ./internal/pastry/ ./internal/scribe/ . | grep -c '^--- PASS')" -eq 15

# One iteration of every benchmark: catches benchmarks that panic or fail to
# build without measuring anything. -short skips the 2048–8192 scale sweeps.
echo "== bench smoke (-benchtime 1x)"
go test -short -run '^$' -bench . -benchtime 1x ./... > /dev/null

echo "CI OK"
