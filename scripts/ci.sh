#!/bin/sh
# CI gate. Every step is one command and every check is a Go test: the
# determinism byte-diffs, smokes, audit and hygiene gates that used to be
# "build, run twice, diff, grep" here are rows of one table, TestGates in
# cmd/vb/gates_test.go, and run with `go test ./...` below. Nothing in the
# tree passes or fails on wall time.
set -eu

cd "$(dirname "$0")/.."

# step closes the step before it with its elapsed seconds and opens the next;
# the wall time of a CI run is read from these lines and the CI OK line.
start=$(date +%s) t=$start name=
step() {
	now=$(date +%s)
	if [ -n "$name" ]; then echo "-- $name: $((now - t)) s"; fi
	t=$now name=$1
	if [ -n "$1" ]; then echo "== $1"; fi
}

step "gofmt, go vet"
test -z "$(gofmt -l .)"
go vet ./...

step "go build"
go build ./...

# The constructor rule (DESIGN.md): every stack above pastry is built by
# core.NewOverlay or core.New; only layer tests below core build by hand.
step "one stack constructor"
if grep -rn 'pastry.NewRing(' --include='*.go' internal cmd |
	grep -v _test.go | grep -vE '^internal/(pastry|core)/'; then exit 1; fi

# Includes the gates table with its long rows (the 524288-server shard pair,
# ≈ 17 s and ≈ 1.5 GB; the 32768-server heap-profile row), the two Fig 14
# allocation ceilings in memregress_test.go and the fuzz targets' seeds.
step "go test"
go test ./...

# The benchmark is a module of its own (benchmark/go.mod), so ./... above
# never reaches it: vet and test it here, against this tree's internal/
# packages, or an API change there breaks the gate's own binary unseen.
step "benchmark module: go vet + go test"
go vet -C benchmark ./...
go test -C benchmark ./...

# The two structures under every event against the models that pin them (a
# container/heap for the timing wheel, the whole-inbox scan for the
# due-ordered inbox), the network sharded and batched against serial and
# per-message delivery, the push shells' sim.Banks under loss, a crash and a
# leave on four shard goroutines (no shell in two banks, or twice in one),
# two pushes of one sender on the wire together, the consider memo against
# the full inserts, the leaf-set insert against the search-insert-truncate
# it replaced, the any-cast's child search against the scan, six scenarios
# of the one poison harness, sim.CheckPoisoned (every record banked on every
# engine overwritten through its type's Poison after every event, on one
# shard and on two, against the same run untouched),
# 400 lossy rounds that must bank what the
# network drops, the bandwidth ledger and
# cached demand sums against the full sweep through a churning run whose
# agents fill their servers' sums from two shard goroutines, and an
# aggregation driven by Step on two and four shards, with values set between
# the steps, against the serial engine's deliveries. They run once
# under the race detector, in their own step below: in full (six of them do
# less, or nothing, under -short), all seeds, never from the test cache.
# -race -short skips them.
models='TestQueueEquivalence|TestBucketQueueMillionEventBacklog|TestInboxMatchesScanModel|TestShardedDeliveryEquivalence|TestDeliveryModeEquivalence|TestShellsAreBankedOnce|TestOverlappingPushesKeepTheirValues|TestConsiderMemoMatchesFullConsider|TestLeafInsertMatchesSortedModel|TestAnycastSearchMatchesScan|TestPoisonedBanksChangeNothing|TestLossyRoundsKeepShellsBounded|TestLedgerMatchesFullSweep|TestStepDrivenShardsMatchSerial'

# -short skips the gates table's long rows and the 32768-server ceilings.
# Every determinism property (shards, workers, recorder, sampler, auditor)
# is checked here through the gates table's short rows (DESIGN.md's
# property × scenario matrix names each one's row) and the experiment
# package's tests of the same properties on its Go API.
step "go test -race -short"
go test -race -short -skip "$models" ./...

step "queue, inbox, delivery, shell, memo, leaf, search, poison, ledger and Step-driven shard model equivalence -race"
go test -race -count=1 -run "$models" \
	./internal/sim/ ./internal/simnet/ ./internal/aggregation/ ./internal/pastry/ ./internal/scribe/ ./internal/core/ \
	./internal/rebalance/ ./internal/migration/ ./internal/cluster/

# Twenty-one gates that must have run and passed by name, not merely not failed
# (a renamed or skipped test fails the count). Eleven count objects: a 256-hop
# spill walk allocates no more than a boot admitted at its rendezvous; a warm
# serving step (a boot, its query's completion and two terminates, under each
# of the four cache/batch settings), a warm BandwidthSatisfaction sweep, a
# SetLocal+Global pair on a subscribed topic, a warm round of 4096
# five-minute tickers and a warm aggregation round, of unchanged values or
# of changed ones whose subtrees re-fold into banked fold lists, allocate
# nothing; a cold tree build and first round allocate neither a server's
# fold list nor its messages, only slab chunks (at most 0.05 objects a
# server past 4096); each
# node past 4096 of an overlay costs a slab chunk's share of an object (under
# 0.02), and core.New a twentieth of one a server beyond the overlay;
# StartServices allocates none of its plumbing or messages (at most 0.1
# objects a server between 1024 and 2048 servers: the second group's state
# comes out of a slab), and a handler event and an embedded ticker's
# start and stop allocate nothing; three warm shuffle rounds allocate at most
# 3 objects a migration (the shed records, queries, shells, timers and fold
# lists are banked). Four are what every server holds of each layer, to the
# byte: the node and the server record come out of one slice each, the
# Scribe and the topic out of their engine's slabs, and a fold list out of
# its engine's bank. One holds the auditor's fold_readers check to what it
# must find: nothing in a sound lossy run, and a list one reader short. One
# holds the bandwidth
# ledger and the cached demand sums to the full sweep they replaced, bit for
# bit, through migrations, boots, terminates, refreshes and a crash-restart.
# Three hold the API to its callers: every field of a
# Config, Options or …Params struct is set somewhere besides its own
# withDefaults, every export of internal/ is used somewhere besides its
# own package's tests, and every function under internal/ runs in the gates
# (go test -short ./cmd/vb under coverage) or is allow-listed with a reason.
# One holds vb to its inputs: every nonsense value a
# bug once hung, panicked or silently ran on exits 1 naming its flag or
# field.
step "allocation, size, ledger, fold-reader, knob, export, reach and bad-config gates, PASS by name (21)"
test "$(go test -count=1 -v -run '^(TestSpillWalkAllocatesNothingPerHop|TestBootPathAllocatesNothing|TestBandwidthSatisfactionAllocatesNothing|TestSetLocalGlobalAllocateNothing|TestWarmRoundAllocatesNoMessages|TestFirstRoundAllocatesOnlyFolds|TestPeriodicTimersAllocateNothing|TestConstructionAllocatesPerLayer|TestCoreConstructionAllocatesPerLayer|TestStartServicesAllocatesOnlyMessages|TestShuffleRoundAllocatesPerMigration|TestNodeSizeCeiling|TestScribeSizeCeiling|TestTopicStateSizeCeiling|TestServerSizeCeiling|TestFoldReaderCheckFindsAnEarlyDrop|TestLedgerMatchesFullSweep|TestEveryKnobHasASetter|TestEveryExportHasACaller|TestEveryFunctionRunsInAGate|TestBadConfigs)$' \
	./internal/placement/ ./internal/serve/ ./internal/core/ ./internal/aggregation/ \
	./internal/sim/ ./internal/pastry/ ./internal/scribe/ ./internal/cluster/ ./cmd/vb/ . | grep -c '^--- PASS')" -eq 21

# One iteration of every benchmark: catches benchmarks that panic or fail to
# build without measuring anything. -short skips the 2048–8192 scale sweeps.
step "bench smoke (-benchtime 1x)"
go test -short -run '^$' -bench . -benchtime 1x ./... > /dev/null

step ""
echo "CI OK in $((t - start)) s"
