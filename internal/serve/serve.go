// Package serve is the boot-query serving layer: the cloud front end that
// turns a sustained stream of boot and terminate requests into placement
// queries against the live DHT engine (paper §II), on the simulation clock.
//
// Three hot-path optimizations, each individually gated by Config:
//
//   - Resolution cache: repeat boots for a customer skip the overlay route
//     and reach the customer's rendezvous in one direct hop — or, once one
//     of the customer's spill walks has finished, resume that walk where it
//     stopped, by way of the servers the customer's terminates have freed
//     since. The cache is invalidated whenever a migration moves one of the
//     customer's VMs (wired into the migration and rebalance completion
//     paths) and on direct-query timeouts; only a full routed query
//     repopulates it.
//   - Batching: boots for a customer that arrive while that customer
//     already has a query in flight are coalesced and flushed as a single
//     walked query that admits the whole batch; group boots (one request,
//     several VMs) ride one query from the start.
//   - Admission control: beyond MaxInFlight outstanding boot VMs the front
//     end sheds new requests with a typed *OverloadError before any VM or
//     reservation exists, so overload degrades into explicit rejections —
//     never a collapse, never a leaked reservation.
package serve

import (
	"errors"
	"fmt"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/obs"
	"vbundle/internal/placement"
	"vbundle/internal/sim"
)

// ErrOverloaded is the sentinel matched by errors.Is for admission-control
// rejections.
var ErrOverloaded = errors.New("serve: boot shed: serving capacity exceeded")

// OverloadError reports a shed boot request with the admission state at the
// decision. It wraps ErrOverloaded.
type OverloadError struct {
	Customer string
	InFlight int
	Limit    int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: boot for %s shed: %d boots in flight, limit %d", e.Customer, e.InFlight, e.Limit)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Config gates the serving-layer optimizations.
type Config struct {
	// Cache enables the customer→rendezvous resolution cache.
	Cache bool
	// Batch coalesces concurrent boots per customer into batched queries.
	Batch bool
	// MaxBatch caps how many VMs one query carries. Defaults to 32.
	MaxBatch int
	// MaxInFlight bounds outstanding (submitted or queued) boot VMs before
	// admission control sheds new requests. 0 disables shedding.
	MaxInFlight int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	return c
}

// Stats is a snapshot of the front end's counters. All values are exact
// virtual-time quantities, so they are identical for any shard count.
type Stats struct {
	// Requested counts boot VMs submitted (admitted + shed).
	Requested int
	// Shed counts boot VMs rejected by admission control.
	Shed int
	// Placed and Failed count resolved boot VMs.
	Placed, Failed int
	// Terminated counts destroyed VMs; TerminateMisses are terminate
	// requests for customers with nothing running.
	Terminated, TerminateMisses int
	// Queries counts placement queries launched; Batches those carrying
	// more than one VM; BatchedVMs the VMs that rode them.
	Queries, Batches, BatchedVMs int
}

// liveInline is how many running VMs a customer's record holds in place; a
// live queue that outgrows them moves into a backing from Frontend.backings.
const liveInline = 8

// customerState is the per-customer serving record, carved from
// Frontend.records.
type customerState struct {
	// queued boots await coalescing onto the next query.
	queued []cluster.VMID
	// live is a ring of the customer's running VMs ordered by id, the
	// oldest at live[head] and the i-th at live[(head+i)&(len(live)-1)],
	// i < n, so terminates free the oldest VM regardless of query
	// completion order and a terminate costs O(1). Its length is a power of
	// two: the record's inline slots, or a pooled backing twice the running
	// count it outgrew.
	live    []cluster.VMID
	head, n int32
	// inFlightQueries counts this customer's outstanding queries; with
	// batching on it stays ≤ 1 and arrivals beyond it queue.
	inFlightQueries int32
	inline          [liveInline]cluster.VMID
}

// push inserts a resolved VM into the live queue in id order. Completions
// arrive out of order, so it sorts backwards from the tail, never past head:
// a late completion older than every VM still running is next to go. A full
// queue moves into a pooled backing of twice its length, so len(live) stays
// within twice the peak running count, or at the inline slots.
func (cs *customerState) push(id cluster.VMID, pool *sim.Pool[cluster.VMID]) {
	if int(cs.n) == len(cs.live) {
		cs.move(pool.Get(2*len(cs.live)), pool)
	}
	mask := int32(len(cs.live) - 1)
	i := cs.head + cs.n
	for ; i > cs.head && cs.live[(i-1)&mask] > id; i-- {
		cs.live[i&mask] = cs.live[(i-1)&mask]
	}
	cs.live[i&mask] = id
	cs.n++
}

// pop takes the oldest running VM; ok is false when nothing runs. A queue
// that drains to half the inline slots moves back into them and banks its
// pooled backing; the slack keeps a count that wavers around the inline
// slots from moving at every boot and terminate.
func (cs *customerState) pop(pool *sim.Pool[cluster.VMID]) (id cluster.VMID, ok bool) {
	if cs.n == 0 {
		return 0, false
	}
	id = cs.live[cs.head]
	cs.head = (cs.head + 1) & int32(len(cs.live)-1)
	cs.n--
	if cs.n <= liveInline/2 && len(cs.live) > liveInline {
		cs.move(cs.inline[:0], pool)
	}
	return id, true
}

// move copies the running VMs, oldest first, into the empty backing to and
// banks the backing they leave, unless it is the record's inline one.
func (cs *customerState) move(to []cluster.VMID, pool *sim.Pool[cluster.VMID]) {
	to = to[:cap(to)]
	tail := copy(to, cs.live[cs.head:min(int(cs.head+cs.n), len(cs.live))])
	copy(to[tail:cs.n], cs.live)
	if &cs.live[0] != &cs.inline[0] {
		pool.Put(cs.live)
	}
	cs.live, cs.head = to, 0
}

// flight is the front end's record of one launched placement query: the
// VMs it carries, by ID, and how many of them are still unanswered. Records
// come from Frontend.flights and go back once the last VM resolves, their
// batches' backings from Frontend.batchBackings and back with them, and a
// record hears its query's answers itself (placement.Resolver), so
// launching a query allocates neither a closure nor a slice.
type flight struct {
	f         *Frontend // set when carved
	cs        *customerState
	batch     []cluster.VMID
	remaining int
}

// Resolve is the query's completion callback: DHT.PlaceBatch calls it once
// per VM. The last call hands the record back before flushing the
// customer's queue, so the next query can ride the same record. The DHT
// drops an answer whose query has timed out, so no call reaches a record
// after it went back.
func (fl *flight) Resolve(i int, r placement.Result, err error) {
	f, cs := fl.f, fl.cs
	f.resolve(cs, fl.batch[i], r, err)
	fl.remaining--
	if fl.remaining > 0 {
		return
	}
	f.releaseFlight(fl)
	cs.inFlightQueries--
	if f.cfg.Batch {
		f.flush(cs)
	}
}

// Frontend is the serving layer over one VBundle instance.
//
// Boot and Terminate must be called from exclusive simulation contexts
// (global-band callbacks or between runs); completions arrive on the
// gateway node's context. Both are serialized by the engine's barriers, so
// the front end needs no locks and behaves identically at any shard count.
type Frontend struct {
	cfg     Config
	cl      *cluster.Cluster
	dht     *placement.DHT
	gateway *sim.Engine
	cache   *placement.ResolutionCache

	inFlight int
	// customers finds a customer's record by name, as Boot and Terminate
	// are called; records carves the records and backings lends the live
	// queues that outgrow their inline slots their rings.
	customers map[string]*customerState
	records   sim.Slab[customerState]
	backings  sim.Pool[cluster.VMID]
	// admitted is Boot's scratch list of the request's admitted VMs; submit
	// copies it into cs.queued or into flights, so it is reused.
	admitted []cluster.VMID
	// flights banks the idle flight records and batchBackings their
	// batches' backings; nflights counts every record made. Both are
	// bounded by the peak number of queries in flight, and neither is cut
	// when the gateway goes idle: a record is 48 B, and a batch at most
	// MaxBatch IDs.
	flights       sim.Bank[flight]
	batchBackings sim.Pool[cluster.VMID]
	nflights      int
	submitAt      map[cluster.VMID]time.Duration
	bootSpans     map[cluster.VMID]obs.Ref

	// latency is the virtual-time placement latency distribution
	// (submission to admission, nanoseconds, successful placements only).
	// A value, not a pointer: the report needs percentiles whether or not
	// tracing is on; when a trace exists it is also registered so the
	// sampled series and trace dumps carry the same distribution.
	latency obs.Histogram

	requested, shed, placed, failed obs.Counter
	terminated, termMisses          obs.Counter
	queries, batches, batchedVMs    obs.Counter
	rootObs, gwObs                  *obs.Source
}

// New wires a front end onto the instance's DHT placer. The cache gate
// attaches a resolution cache to the DHT and registers invalidation hooks on
// the migration manager and the rebalance coordinator. Counters are
// registered on the trace registry when tracing is on.
func New(vb *core.VBundle, cfg Config) (*Frontend, error) {
	dht, ok := vb.Placer.(*placement.DHT)
	if !ok {
		return nil, fmt.Errorf("serve: front end requires the DHT engine, got %s", vb.Placer.Name())
	}
	switch {
	case cfg.MaxBatch < 0:
		return nil, fmt.Errorf("serve: MaxBatch = %d, must not be negative (0 for the default)", cfg.MaxBatch)
	case cfg.MaxInFlight < 0:
		return nil, fmt.Errorf("serve: MaxInFlight = %d, must not be negative (0 for no cap)", cfg.MaxInFlight)
	}
	cfg = cfg.withDefaults()
	gw := dht.Gateway()
	f := &Frontend{
		cfg:       cfg,
		cl:        vb.Cluster,
		dht:       dht,
		gateway:   gw.Engine(),
		customers: make(map[string]*customerState),
		submitAt:  make(map[cluster.VMID]time.Duration),
		bootSpans: make(map[cluster.VMID]obs.Ref),
	}
	if tr := vb.Options().Trace; tr != nil {
		f.rootObs = tr.Source(obs.RootSource)
		f.gwObs = gw.Obs()
		reg := tr.Registry()
		reg.Register("serve/requested", &f.requested)
		reg.Register("serve/shed", &f.shed)
		reg.Register("serve/placed", &f.placed)
		reg.Register("serve/failed", &f.failed)
		reg.Register("serve/terminated", &f.terminated)
		reg.Register("serve/terminate_misses", &f.termMisses)
		reg.Register("serve/queries", &f.queries)
		reg.Register("serve/batches", &f.batches)
		reg.Register("serve/batched_vms", &f.batchedVMs)
		reg.RegisterHistogram("serve/latency_ns", &f.latency)
	}
	if cfg.Cache {
		f.cache = placement.NewResolutionCache()
		dht.SetCache(f.cache)
		invalidate := func(vm *cluster.VM, err error) {
			if err == nil {
				f.cache.Invalidate(vm.Customer)
			}
		}
		vb.Migration.AddOnComplete(func(vm *cluster.VM, _, _ int, err error) { invalidate(vm, err) })
		vb.Rebalancer.SetOnMigrated(invalidate)
	}
	return f, nil
}

// Cache returns the attached resolution cache (nil when the gate is off).
func (f *Frontend) Cache() *placement.ResolutionCache { return f.cache }

// Unresolved counts boot VMs still queued or in flight; after a drain it
// must be zero or the front end leaked a boot.
func (f *Frontend) Unresolved() int { return f.inFlight }

// Latency returns the virtual-time placement latency histogram
// (nanoseconds, submission to admission, successful placements only).
func (f *Frontend) Latency() *obs.Histogram { return &f.latency }

// Stats snapshots the counters.
func (f *Frontend) Stats() Stats {
	return Stats{
		Requested:       int(f.requested.Value()),
		Shed:            int(f.shed.Value()),
		Placed:          int(f.placed.Value()),
		Failed:          int(f.failed.Value()),
		Terminated:      int(f.terminated.Value()),
		TerminateMisses: int(f.termMisses.Value()),
		Queries:         int(f.queries.Value()),
		Batches:         int(f.batches.Value()),
		BatchedVMs:      int(f.batchedVMs.Value()),
	}
}

func (f *Frontend) state(customer string) *customerState {
	cs, ok := f.customers[customer]
	if !ok {
		cs = f.records.New()
		cs.live = cs.inline[:]
		f.customers[customer] = cs
	}
	return cs
}

// Boot submits one boot request of group VMs for the customer. It returns
// how many were admitted; when admission control sheds the rest the error
// is a *OverloadError and no VM (or reservation) exists for the shed part.
func (f *Frontend) Boot(customer string, group int, reservation, limit cluster.Resources) (int, error) {
	cs := f.state(customer)
	now := f.gateway.Now()
	admitted := f.admitted[:0]
	for i := 0; i < group; i++ {
		f.requested.Inc()
		if f.cfg.MaxInFlight > 0 && f.inFlight >= f.cfg.MaxInFlight {
			shedCount := group - i
			f.shed.Add(int64(shedCount))
			f.requested.Add(int64(shedCount - 1))
			f.rootObs.Instant(now, obs.KindBootShed, obs.NoRef, int64(f.inFlight), int64(f.cfg.MaxInFlight))
			f.submit(cs, admitted)
			return len(admitted), &OverloadError{Customer: customer, InFlight: f.inFlight, Limit: f.cfg.MaxInFlight}
		}
		vm, err := f.cl.CreateVM(customer, reservation, limit)
		if err != nil {
			f.submit(cs, admitted)
			return len(admitted), err
		}
		// The booted workload immediately exerts its reserved demand, so
		// the rebalancer has real load to shuffle.
		vm.Demand = reservation
		f.inFlight++
		f.submitAt[vm.ID] = now
		if f.rootObs.Enabled() {
			hot := int64(0)
			if f.cache != nil {
				if _, ok := f.cache.Peek(customer); ok {
					hot = 1
				}
			}
			f.bootSpans[vm.ID] = f.rootObs.Begin(now, obs.KindBoot, obs.NoRef, int64(vm.ID), hot)
		}
		admitted = append(admitted, vm.ID)
	}
	f.submit(cs, admitted)
	return len(admitted), nil
}

// submit routes the boots Boot admitted: coalesce behind an in-flight query
// when batching is on, otherwise launch immediately. Either way the VMs are
// copied, into cs.queued or into flight records, so vms goes back to Boot's
// scratch list.
func (f *Frontend) submit(cs *customerState, vms []cluster.VMID) {
	switch {
	case len(vms) == 0:
	case !f.cfg.Batch:
		for i := range vms {
			f.launch(f.acquireFlight(cs, vms[i:i+1]))
		}
	default:
		cs.queued = append(cs.queued, vms...)
		// Launch immediately when nothing is in flight (no coalescing
		// partner exists yet), and whenever a full batch has accumulated —
		// so one slow query never caps a busy customer's throughput at
		// MaxBatch per round-trip.
		for cs.inFlightQueries == 0 && len(cs.queued) > 0 || len(cs.queued) >= f.cfg.MaxBatch {
			f.flush(cs)
		}
	}
	f.admitted = vms[:0]
}

// flush launches one query carrying up to MaxBatch queued VMs.
func (f *Frontend) flush(cs *customerState) {
	n := len(cs.queued)
	if n == 0 {
		return
	}
	if n > f.cfg.MaxBatch {
		n = f.cfg.MaxBatch
	}
	fl := f.acquireFlight(cs, cs.queued[:n])
	cs.queued = cs.queued[:copy(cs.queued, cs.queued[n:])]
	f.launch(fl)
}

// acquireFlight takes an idle flight record, or makes one, and loads it with
// a copy of vms in a pooled backing.
func (f *Frontend) acquireFlight(cs *customerState, vms []cluster.VMID) *flight {
	fl := f.flights.Take()
	if fl.f == nil { // fresh from the slab
		fl.f = f
		f.nflights++
	}
	fl.cs = cs
	fl.batch = append(f.batchBackings.Get(len(vms)), vms...)
	fl.remaining = len(vms)
	return fl
}

// releaseFlight banks a record whose every VM has resolved, and its batch.
func (f *Frontend) releaseFlight(fl *flight) {
	f.batchBackings.Put(fl.batch)
	fl.batch = nil
	fl.cs = nil
	f.flights.Put(fl)
}

// launch starts the placement query of a loaded flight record. The query
// may resolve before PlaceBatch returns, so nothing here reads the record
// after handing it over.
func (f *Frontend) launch(fl *flight) {
	f.queries.Inc()
	if n := len(fl.batch); n > 1 {
		f.batches.Inc()
		f.batchedVMs.Add(int64(n))
	}
	fl.cs.inFlightQueries++
	f.dht.PlaceBatch(fl.batch, fl)
}

// resolve finishes one boot VM: stats, latency, live list — or destroy on
// failure so nothing stays half-booted.
func (f *Frontend) resolve(cs *customerState, id cluster.VMID, r placement.Result, err error) {
	f.inFlight--
	now := f.gateway.Now()
	submitted := f.submitAt[id]
	delete(f.submitAt, id)
	span, hasSpan := f.bootSpans[id]
	if hasSpan {
		delete(f.bootSpans, id)
	}
	if err != nil {
		f.failed.Inc()
		f.cl.Destroy(id)
		if hasSpan {
			f.gwObs.End(now, obs.KindBoot, span, int64(id), -1)
		}
		return
	}
	f.placed.Inc()
	f.latency.RecordDuration(now - submitted)
	cs.push(id, &f.backings)
	if hasSpan {
		f.gwObs.End(now, obs.KindBoot, span, int64(id), int64(r.Server))
	}
}

// Terminate destroys the customer's oldest running VM, freeing its
// reservation. It reports the VM and the server whose capacity it freed;
// ok is false (a counted miss) when the customer has nothing running.
func (f *Frontend) Terminate(customer string) (id cluster.VMID, server int, ok bool) {
	if cs := f.customers[customer]; cs != nil {
		id, ok = cs.pop(&f.backings)
	}
	if !ok {
		f.termMisses.Inc()
		return 0, -1, false
	}
	server, _ = f.cl.Terminate(id)
	if f.cache != nil {
		f.cache.Freed(customer, server)
	}
	f.terminated.Inc()
	f.rootObs.Instant(f.gateway.Now(), obs.KindTerminate, obs.NoRef, int64(id), int64(server))
	return id, server, true
}
