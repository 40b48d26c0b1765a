// Package audit is the online invariant auditor: read-only periodic sweeps
// on the simulation clock that check, while the run is still going, the
// invariants the experiment gates otherwise verify only at run end. A leak
// that opens and self-heals mid-run is invisible to a run-end check; a
// sweep catches it in the act and records when.
//
// The auditor is strictly an observer. Sweeps run between events via the
// engine's sampler hook (sim.AddSampler) — on the root goroutine, with all
// shard workers idle — and touch nothing but read-only accessors: no lease
// sweeps, no persistence, no scheduled events, no trace spans on node
// sources. Running with the auditor on therefore changes no virtual-time
// metric by a single bit, which the -audit rows of cmd/vb's gates table
// assert by byte-diffing experiment output with the auditor on and off.
package audit

import (
	"fmt"
	"io"
	"math"
	"time"

	"vbundle/internal/aggregation"
	"vbundle/internal/cluster"
	"vbundle/internal/migration"
	"vbundle/internal/obs"
	"vbundle/internal/rebalance"
	"vbundle/internal/sim"
)

// Check identifies one invariant the auditor sweeps.
type Check int

const (
	// CheckLeaseBalance verifies per-agent reservation accounting:
	// Accepted+Adopted holds equal Released+Expired plus the live table,
	// and no live hold has aged long past its lease without an in-flight
	// migration to justify it (the mid-run form of the run-end
	// LeakedReservations gate).
	CheckLeaseBalance Check = iota + 1
	// CheckPlacement verifies the cluster's location map and the
	// per-server VM lists agree bijectively.
	CheckPlacement
	// CheckLeaseExpiry verifies every hold's timestamps are sane: granted
	// in the past, expiry after grant, and no expiry further out than one
	// full lease from now.
	CheckLeaseExpiry
	// CheckDemandLedger verifies every server's cached bandwidth-demand sum
	// that claims to be current against a fresh re-sum of its VMs, bit for
	// bit: a mutation that forgot to move the server's generation (or a
	// demand written past Cluster.SetDemandBW) leaves a stale sum looking
	// current.
	CheckDemandLedger
	// CheckFoldReaders verifies every fold list an aggregation manager
	// caches, last sent or keeps in its info base: its reader count is above
	// 0 and no lower than the references the sweep finds across all the
	// managers, so no list is banked while someone still reads it.
	CheckFoldReaders
)

// checkSlots sizes per-check arrays indexed directly by Check.
const checkSlots = int(CheckFoldReaders) + 1

// String names the check for reports and fail-fast panics.
func (c Check) String() string {
	switch c {
	case CheckLeaseBalance:
		return "lease_balance"
	case CheckPlacement:
		return "placement_agreement"
	case CheckLeaseExpiry:
		return "lease_expiry"
	case CheckDemandLedger:
		return "demand_ledger"
	case CheckFoldReaders:
		return "fold_readers"
	default:
		return "unknown"
	}
}

// Config selects the sweep cadence and failure mode.
type Config struct {
	// Every is the virtual-time sweep interval; <= 0 disables the auditor
	// (Attach returns nil).
	Every time.Duration
	// FailFast panics on the first violation with the full description —
	// the test mode, so an invariant break fails the suite at the instant
	// it opens instead of surfacing as a downstream diff.
	FailFast bool
	// MaxDetail bounds how many violation records are retained for the
	// report (default 32; counters are always exact).
	MaxDetail int
}

// Targets are the subsystems one auditor watches. Engine is required;
// every other target is optional — a stack without a cluster (the Fig 14
// aggregation overhead rig) simply gets the checks its targets support.
type Targets struct {
	Engine     *sim.Engine
	Cluster    *cluster.Cluster
	Rebalancer *rebalance.Coordinator
	Migration  *migration.Manager
	// Aggs are the aggregation managers, one a node, whose fold lists
	// CheckFoldReaders sweeps. The auditor reads the slice at every sweep,
	// so a manager a restart puts in place of another is swept.
	Aggs []*aggregation.Manager
	// Trace, when non-nil, receives a KindAuditViolation instant on the
	// root source per violation and the audit/* counters in its registry.
	Trace *obs.Trace
}

// suspectKey identifies one (server, vm) hold across sweeps for the
// leak check's consecutive-sighting memory.
type suspectKey struct {
	server int
	vm     cluster.VMID
}

// Violation is one retained check failure.
type Violation struct {
	Time  time.Duration
	Check Check
	// Node is the offending server/node address (-1 when not applicable).
	Node int
	// VM is the offending VM id (-1 when not applicable).
	VM  int64
	Msg string
}

// Auditor runs the sweeps. A nil *Auditor is fully disabled: the read
// accessors return zero, Report writes nothing.
type Auditor struct {
	cfg Config
	t   Targets

	src        *obs.Source
	sweeps     obs.Counter
	violations obs.Counter
	perCheck   [checkSlots]obs.Counter

	detail []Violation

	// suspects carries the leak check's sighting counts between sweeps: a
	// hold must look leaked on consecutive sweeps before it is reported,
	// so a release legitimately in transit at one boundary is forgiven.
	suspects map[suspectKey]int
	scratch  map[suspectKey]bool

	folds aggregation.FoldReaderCheck
}

// Attach builds an auditor over t and schedules its sweeps every cfg.Every
// of virtual time through the engine's sampler hook. Returns nil (a valid,
// disabled auditor) when cfg.Every <= 0. Attach after the stack is built
// and before the run starts; registration order against a metrics series
// on the same engine does not matter, because sweeps write no metrics the
// series samples.
func Attach(cfg Config, t Targets) *Auditor {
	if cfg.Every <= 0 || t.Engine == nil {
		return nil
	}
	if cfg.MaxDetail <= 0 {
		cfg.MaxDetail = 32
	}
	a := &Auditor{
		cfg:      cfg,
		t:        t,
		suspects: make(map[suspectKey]int),
		scratch:  make(map[suspectKey]bool),
	}
	if t.Trace != nil {
		a.src = t.Trace.Source(obs.RootSource)
		reg := t.Trace.Registry()
		reg.Register("audit/sweeps", &a.sweeps)
		reg.Register("audit/violations", &a.violations)
		for c := Check(1); int(c) < checkSlots; c++ {
			reg.Register("audit/"+c.String(), &a.perCheck[c])
		}
	}
	t.Engine.AddSampler(cfg.Every, a.sweep)
	return a
}

// Sweeps returns how many sweeps have run.
func (a *Auditor) Sweeps() int {
	if a == nil {
		return 0
	}
	return int(a.sweeps.Value())
}

// Violations returns the total violation count across all sweeps.
func (a *Auditor) Violations() int {
	if a == nil {
		return 0
	}
	return int(a.violations.Value())
}

// Report writes a one-line summary plus the retained violations. Binaries
// send it to stderr: experiment stdout is byte-diffed with the auditor on
// and off, and must stay identical.
func (a *Auditor) Report(w io.Writer) {
	if a == nil {
		return
	}
	fmt.Fprintf(w, "audit: sweeps=%d violations=%d", a.Sweeps(), a.Violations())
	for c := Check(1); int(c) < checkSlots; c++ {
		if n := a.perCheck[c].Value(); n > 0 {
			fmt.Fprintf(w, " %s=%d", c.String(), n)
		}
	}
	fmt.Fprintln(w)
	for i := range a.detail {
		v := &a.detail[i]
		fmt.Fprintf(w, "  %v %s node=%d vm=%d: %s\n", v.Time, v.Check.String(), v.Node, v.VM, v.Msg)
	}
	if extra := a.Violations() - len(a.detail); extra > 0 {
		fmt.Fprintf(w, "  ... and %d more\n", extra)
	}
}

// report records one violation: counters, a retained record, a trace
// instant, and — in fail-fast mode — a panic carrying the description.
func (a *Auditor) report(now time.Duration, c Check, node int, vm int64, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	a.violations.Inc()
	a.perCheck[c].Inc()
	if len(a.detail) < a.cfg.MaxDetail {
		a.detail = append(a.detail, Violation{Time: now, Check: c, Node: node, VM: vm, Msg: msg})
	}
	a.src.Instant(now, obs.KindAuditViolation, obs.NoRef, int64(c), nodeOrVM(node, vm))
	if a.cfg.FailFast {
		panic(fmt.Sprintf("audit: %v %s node=%d vm=%d: %s", now, c.String(), node, vm, msg))
	}
}

// nodeOrVM packs the most specific offender into the event's B argument.
func nodeOrVM(node int, vm int64) int64 {
	if vm >= 0 {
		return vm
	}
	return int64(node)
}

// sweep runs every applicable check at one sampling boundary.
func (a *Auditor) sweep(now time.Duration) {
	a.sweeps.Inc()
	if a.t.Rebalancer != nil && a.t.Cluster != nil {
		a.checkLeases(now)
	}
	if a.t.Cluster != nil {
		a.checkPlacement(now)
		a.checkDemandLedger(now)
	}
	if len(a.t.Aggs) > 0 {
		a.folds.Run(a.t.Aggs, func(node int, topic string, readers, refs int) {
			a.report(now, CheckFoldReaders, node, -1,
				"a fold list of topic %s has %d readers, %d holders are in view", topic, readers, refs)
		})
	}
}

// checkLeases runs CheckLeaseBalance and CheckLeaseExpiry over every
// agent's reservation table, read-only (no sweeping: lazily-unswept expired
// holds are still part of the balance, because they are not yet counted as
// Expired).
func (a *Auditor) checkLeases(now time.Duration) {
	co := a.t.Rebalancer
	lease := co.Config().LeaseDuration
	n := a.t.Cluster.Size()
	for k := range a.scratch {
		delete(a.scratch, k)
	}
	for i := 0; i < n; i++ {
		ag := co.Agent(i)
		if ag == nil {
			continue
		}
		st := ag.Stats()
		granted := st.Accepted + st.Adopted
		gone := st.Released + st.Expired
		held := ag.HoldCount()
		if granted != gone+held {
			a.report(now, CheckLeaseBalance, i, -1,
				"accepted %d + adopted %d != released %d + expired %d + held %d",
				st.Accepted, st.Adopted, st.Released, st.Expired, held)
		}
		ag.EachHold(func(vm cluster.VMID, grantedAt, expires time.Duration) {
			if grantedAt > now || expires <= grantedAt || expires > now+lease {
				a.report(now, CheckLeaseExpiry, i, int64(vm),
					"granted %v expires %v (now %v, lease %v)", grantedAt, expires, now, lease)
			}
			// A hold lasts one lease from its grant, and only a duplicate
			// accept refreshes it; a live hold aged far past its own lease
			// with no in-flight migration to justify the refreshes is a
			// leak in the making. Expired-but-unswept holds are excluded
			// (lazy expiry will reclaim them), and a sighting must repeat
			// on the next sweep so a release in transit at this boundary
			// is forgiven.
			if expires > now && now-grantedAt > 2*lease &&
				(a.t.Migration == nil || !a.t.Migration.InFlight(vm)) {
				key := suspectKey{server: i, vm: vm}
				a.scratch[key] = true
				a.suspects[key]++
				if a.suspects[key] >= 2 {
					a.report(now, CheckLeaseBalance, i, int64(vm),
						"hold aged %v (lease %v) with no in-flight migration", now-grantedAt, lease)
				}
			}
		})
	}
	for k := range a.suspects {
		if !a.scratch[k] {
			delete(a.suspects, k)
		}
	}
}

// checkPlacement verifies the location map and the per-server VM lists
// describe the same placement: every listed VM maps back to its server,
// and the placed-VM count matches the list totals (with the back-mapping,
// that makes the correspondence a bijection).
func (a *Auditor) checkPlacement(now time.Duration) {
	cl := a.t.Cluster
	listed := 0
	for i := 0; i < cl.Size(); i++ {
		srv := cl.Server(i)
		for _, vm := range srv.VMs() {
			listed++
			at, placed := cl.LocationOf(vm.ID)
			if !placed || at != i {
				a.report(now, CheckPlacement, i, int64(vm.ID),
					"listed on server %d but location map says (%d, placed=%v)", i, at, placed)
			}
		}
	}
	placed := 0
	cl.EachVM(func(vm *cluster.VM) {
		if _, ok := cl.LocationOf(vm.ID); ok {
			placed++
		}
	})
	if placed != listed {
		a.report(now, CheckPlacement, -1, -1,
			"%d VMs placed in the location map, %d listed on servers", placed, listed)
	}
}

// checkDemandLedger compares each server's cached bandwidth-demand sum, when
// it claims to be current, with a fresh re-sum in the same VM-id order. It
// reads the cache through CachedDemandBW and so never fills it: a sweep
// leaves every stale sum stale.
func (a *Auditor) checkDemandLedger(now time.Duration) {
	for _, srv := range a.t.Cluster.Servers() {
		cached, clean := srv.CachedDemandBW()
		if !clean {
			continue
		}
		var sum float64
		for _, vm := range srv.VMs() {
			sum += vm.EffectiveDemandBW()
		}
		if math.Float64bits(sum) != math.Float64bits(cached) {
			a.report(now, CheckDemandLedger, srv.Index, -1,
				"cached bandwidth demand %g is marked current, its VMs sum to %g", cached, sum)
		}
	}
}
