// Package migration models VM migration as v-Bundle uses it (§V.B): live
// migration keeps the instance running while its memory is copied to the
// destination (shared storage over NFS means only memory moves). The
// rebalancer only needs the cost semantics — how long a migration takes, how
// much traffic it creates, and whether the destination can still admit the
// VM when it lands.
package migration

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/obs"
	"vbundle/internal/sim"
)

// Sentinel errors for death-during-migration outcomes, so callers can tell
// a crashed endpoint from an admission failure with errors.Is.
var (
	// ErrDestinationDead means the destination server crashed before or
	// during the transfer; the VM stays at its source.
	ErrDestinationDead = errors.New("destination server dead")
	// ErrSourceDead means the source server crashed mid-transfer, taking
	// the migration stream (and the VM it hosted) down with it.
	ErrSourceDead = errors.New("source server dead")
)

// The cost model of a live migration over the testbed's GbE.
const (
	// LinkMbps is the bandwidth the migration stream gets.
	LinkMbps = 1000
	// dirtyFactor inflates the copied volume for the iterative pre-copy
	// rounds.
	dirtyFactor = 1.3
	// Downtime is the stop-and-copy pause at the end of the transfer.
	Downtime = 60 * time.Millisecond
)

// Duration returns how long moving memMB of guest memory takes.
func Duration(memMB float64) time.Duration {
	bits := memMB * 8e6 * dirtyFactor // MB -> Mb (decimal, matching Mbps)
	seconds := bits / (LinkMbps * 1e6)
	return time.Duration(seconds*float64(time.Second)) + Downtime
}

// Stats summarizes completed migrations.
type Stats struct {
	Started   int
	Completed int
	Failed    int
	// FailedDeadDest and FailedDeadSource break Failed down by endpoint
	// death (the remainder are admission failures at arrival).
	FailedDeadDest   int
	FailedDeadSource int
	// MovedMemMB is the guest memory moved by completed migrations.
	MovedMemMB float64
	// BusyTime is the summed transfer duration of completed migrations.
	BusyTime time.Duration
}

// Manager executes migrations on a cluster over virtual time.
//
// Under a sharded engine, MigrateTraced is called from shard context
// (rebalance agents) while completions run exclusively on the root in the
// keyed band, ordered by VM id — so the cluster mutation order is
// deterministic for any shard count. mu guards the small shared bookkeeping
// (inFlight, stats) against concurrent starts; the cluster state read by the
// start-side checks only changes at exclusive instants, so those reads are
// stable within a window.
type Manager struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	mu      sync.Mutex
	stats   Stats
	// inFlight counts migrations per VM so a VM is never moved twice
	// concurrently.
	inFlight map[cluster.VMID]bool
	// alive, when set, reports whether a server is up; migrations to (or
	// from) servers that die mid-flight abort instead of completing. Nil
	// means every server is always up (the paper's fault-free setting).
	alive func(server int) bool
	// engineFor, when set, returns the engine owning a server's events; the
	// source server's clock is the migration's start time. Nil falls back to
	// the manager's engine (always correct serially).
	engineFor func(server int) *sim.Engine
	// rootObs records migration completions. Completions run exclusively on
	// the root engine in the keyed band (deterministic order), so they get
	// the root recorder source rather than any node's.
	rootObs *obs.Source
	// durHist records completed transfers' durations (nil when tracing is
	// off). Written only inside the keyed completion band — exclusive on
	// the root — so it needs no locking.
	durHist *obs.Histogram
	// hooks run after every migration attempt finishes, in registration
	// order, inside the keyed completion band (exclusive on the root, so
	// deterministic for any shard count). The serving layer registers one to
	// evict its customer→rendezvous cache when a VM moves.
	hooks []CompletionHook
	// flights banks the flight records of finished migrations, under mu: a
	// start takes one, its completion gives it back, so the bank is bounded
	// by the peak number of migrations in flight.
	flights sim.Bank[flight]
}

// flight is one migration between its start and its completion, and the
// handler of its keyed completion event. It keeps the VM's ID, not its
// record: the VM may be destroyed while it migrates, and its record reused.
type flight struct {
	m        *Manager
	vm       cluster.VMID
	src, dst int
	d        time.Duration
	span     obs.Ref
	onDone   Done
}

// Done hears how a migration ended (nil: the VM now runs on the destination).
type Done interface{ MigrationDone(err error) }

// CompletionHook observes a finished migration attempt: the VM, where it
// moved from and to, and the outcome (nil = the VM now runs on dst). vm is
// nil when the VM was destroyed before the migration ended; err is then not
// nil.
type CompletionHook func(vm *cluster.VM, src, dst int, err error)

// New creates a migration manager.
func New(engine *sim.Engine, cl *cluster.Cluster) *Manager {
	return &Manager{
		engine:   engine,
		cluster:  cl,
		inFlight: make(map[cluster.VMID]bool),
	}
}

// SetLiveness installs the server-liveness oracle consulted at migration
// start and arrival; core wires it to the simulated network so crashed
// servers abort their in-flight migrations.
func (m *Manager) SetLiveness(alive func(server int) bool) { m.alive = alive }

// SetEngineFor installs the server→engine mapping used to read the caller's
// clock and stage completions; core wires it to the network's shard map when
// the engine is sharded.
func (m *Manager) SetEngineFor(engineFor func(server int) *sim.Engine) { m.engineFor = engineFor }

// SetTrace attaches the run's flight recorder; completions are recorded on
// its root source, and successful transfer durations feed a registered
// histogram. A nil trace (recording off) is accepted.
func (m *Manager) SetTrace(tr *obs.Trace) {
	m.rootObs = tr.Source(obs.RootSource)
	if reg := tr.Registry(); reg != nil {
		m.durHist = &obs.Histogram{}
		reg.RegisterHistogram("migration/duration_ns", m.durHist)
	}
}

// AddOnComplete registers a completion hook. Hooks run before the caller's
// onDone, in the keyed completion band. Not safe to call while migrations
// are in flight.
func (m *Manager) AddOnComplete(h CompletionHook) { m.hooks = append(m.hooks, h) }

func (m *Manager) serverAlive(s int) bool { return m.alive == nil || m.alive(s) }

func (m *Manager) engineOf(server int) *sim.Engine {
	if m.engineFor != nil {
		return m.engineFor(server)
	}
	return m.engine
}

// Stats returns a copy of the migration counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// InFlight reports whether the VM is currently migrating.
func (m *Manager) InFlight(id cluster.VMID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inFlight[id]
}

// MigrateTraced starts moving the VM to server dst. onDone, if non-nil,
// hears when the migration completes or fails; a nil error means the VM now
// runs on dst. The call itself fails fast (synchronously returned error)
// when the VM is unknown, unplaced, already migrating, or the destination
// cannot admit it right now.
//
// rec is the caller's recorder source (the shedding node) and parent the
// span that caused this move — the anycast that discovered the receiver.
// The migration span begins on the caller's stream and ends on the root
// stream (where completions execute); the shared span ref joins the two
// halves.
func (m *Manager) MigrateTraced(rec *obs.Source, parent obs.Ref, id cluster.VMID, dst int, onDone Done) error {
	vm := m.cluster.VM(id)
	if vm == nil {
		return fmt.Errorf("migration: unknown vm %d", id)
	}
	src, placed := m.cluster.LocationOf(id)
	if !placed {
		return fmt.Errorf("migration: vm %d is not placed", id)
	}
	if src == dst {
		return fmt.Errorf("migration: vm %d already on server %d", id, dst)
	}
	if !m.cluster.Server(dst).CanAdmit(vm) {
		return fmt.Errorf("migration: server %d cannot admit vm %d", dst, id)
	}
	if !m.serverAlive(dst) {
		return fmt.Errorf("migration: server %d: %w", dst, ErrDestinationDead)
	}
	m.mu.Lock()
	if m.inFlight[id] {
		m.mu.Unlock()
		return fmt.Errorf("migration: vm %d already migrating", id)
	}
	m.inFlight[id] = true
	m.stats.Started++
	f := m.flights.Take()
	m.mu.Unlock()
	d := Duration(vm.Reservation.MemMB)
	// The completion mutates shared cluster state, so it runs in the keyed
	// band — exclusively on the root engine, same-instant completions ordered
	// by VM id in every engine mode. The start time is the caller's clock:
	// the source server's shard clock under sharding.
	caller := m.engineOf(src)
	span := rec.Begin(caller.Now(), obs.KindMigration, parent, int64(id), int64(dst))
	*f = flight{m: m, vm: id, src: src, dst: dst, d: d, span: span, onDone: onDone}
	caller.AtKeyedHandler(caller.Now()+d, uint64(id), f)
	return nil
}

// Fire implements sim.Handler: the migration's completion.
func (f *flight) Fire() {
	m, id, src, dst, d, span, onDone := f.m, f.vm, f.src, f.dst, f.d, f.span, f.onDone
	m.mu.Lock()
	delete(m.inFlight, id)
	*f = flight{}
	m.flights.Put(f)
	m.mu.Unlock()
	// Re-check endpoint liveness and admission at arrival: either
	// server may have died, or capacity may have been consumed by a
	// concurrent migration. On any failure the VM stays at its source.
	var err error
	switch {
	case !m.serverAlive(dst):
		err = fmt.Errorf("migration: vm %d: %w", id, ErrDestinationDead)
	case !m.serverAlive(src):
		err = fmt.Errorf("migration: vm %d: %w", id, ErrSourceDead)
	default:
		err = m.cluster.Migrate(id, dst)
	}
	vm := m.cluster.VM(id) // nil once destroyed, and then err is set
	m.mu.Lock()
	switch {
	case errors.Is(err, ErrDestinationDead):
		m.stats.FailedDeadDest++
	case errors.Is(err, ErrSourceDead):
		m.stats.FailedDeadSource++
	}
	if err != nil {
		m.stats.Failed++
	} else {
		m.stats.Completed++
		m.stats.MovedMemMB += vm.Reservation.MemMB
		m.stats.BusyTime += d
	}
	m.mu.Unlock()
	var outcome int64
	switch {
	case errors.Is(err, ErrDestinationDead):
		outcome = 1
	case errors.Is(err, ErrSourceDead):
		outcome = 2
	case err != nil:
		outcome = 3
	}
	if outcome == 0 {
		m.durHist.RecordDuration(d)
	}
	if span != obs.NoRef {
		m.rootObs.End(m.engine.Now(), obs.KindMigration, span, int64(id), outcome)
	}
	for _, h := range m.hooks {
		h(vm, src, dst, err)
	}
	if onDone != nil {
		onDone.MigrationDone(err)
	}
}
