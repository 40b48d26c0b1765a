package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"vbundle/internal/core"
	"vbundle/internal/metrics"
	"vbundle/internal/rebalance"
	"vbundle/internal/store"
)

// FaultParams configures the fault experiment: the Fig. 9 rebalancing
// experiment plus a fault value — a lossy network, and victims taken down
// mid-run. It measures what the paper's evaluation assumes implicitly: that
// the shed/receive protocol neither stalls nor leaks receiver-side
// reservations when messages vanish and servers fail.
//
// A victim is crashed (simnet Crash: its handler, leaf sets, lease tables and
// placement maps are discarded) and by default stays down. With Crash the
// first Victims reboot from their durable store and reconcile with the live
// ring. That run's verdict is the recovery gate: no VM lost, no reservation
// leaked across the restart.
type FaultParams struct {
	// RebalanceParams is the experiment underneath. Two defaults differ: a
	// ≈300-server slice and 10 VMs a server, so a whole loss sweep stays
	// cheap.
	RebalanceParams
	// LeaseDuration bounds receiver-side reservation holds.
	LeaseDuration time.Duration
	// Heartbeat drives Pastry/Scribe self-repair (on whenever a fault is
	// injected).
	Heartbeat time.Duration
	// DropRate is the independent per-message loss probability (0–1).
	DropRate float64
	// Victims is how many current receivers to take down at At. Crashed
	// victims reboot RestartAfter later.
	Victims int
	// At is when the victims go down; defaults to Duration/3.
	At time.Duration
	// Crash makes the fault a crash-restart instead of a crash that stays
	// down. Victims then defaults to 1 when CrashForever is zero too.
	Crash bool
	// CrashForever (Crash only) is how many additional nodes to crash with
	// no restart at all — they stay down, exercising the store-backed lease
	// audit of dead nodes.
	CrashForever int
	// RestartAfter (Crash only) is the downtime before a crashed victim
	// reboots; defaults to 2×UpdateInterval.
	RestartAfter time.Duration
}

func (p FaultParams) withDefaults() FaultParams {
	if p.Spec.Racks == 0 {
		p.Spec = ScaledSpec(300)
	}
	if p.VMsPerServer == 0 {
		p.VMsPerServer = 10
	}
	p.RebalanceParams = p.RebalanceParams.withDefaults()
	if p.LeaseDuration == 0 {
		p.LeaseDuration = 10 * time.Minute
	}
	if p.Heartbeat == 0 {
		p.Heartbeat = time.Minute
	}
	if p.At == 0 {
		p.At = p.Duration / 3
	}
	if p.Crash {
		if p.Victims == 0 && p.CrashForever == 0 {
			p.Victims = 1
		}
		if p.RestartAfter == 0 {
			p.RestartAfter = 2 * p.UpdateInterval
		}
	}
	return p
}

func (p FaultParams) check() error {
	return errors.Join(p.RebalanceParams.check(), notNegative("LeaseDuration", p.LeaseDuration),
		notNegative("Heartbeat", p.Heartbeat), notNegative("Victims", p.Victims), notNegative("At", p.At),
		notNegative("CrashForever", p.CrashForever), notNegative("RestartAfter", p.RestartAfter))
}

// FaultOutcome reports convergence, leak and recovery accounting for one run.
type FaultOutcome struct {
	Params FaultParams
	// Victims lists the servers taken down at At (crashed ones restart);
	// Dead lists the ones crashed with no restart.
	Victims, Dead []int
	// VMsBefore and VMsAfter are the registered VM counts on either side
	// of the fault window (the workload neither boots nor destroys, so
	// they must match).
	VMsBefore, VMsAfter int
	// LostVMs counts VMs still registered but placed nowhere after the
	// quiesce — VMs lost across a restart. Must be zero.
	LostVMs int
	// BeforeSD and AfterSD are utilization standard deviations among the
	// servers alive at the time.
	BeforeSD, AfterSD float64
	// SD is the live-server SD time series.
	SD metrics.TimeSeries
	// Converged reports whether the SD settled; ConvergenceTime is the
	// first sample after which it never left a small band around AfterSD.
	Converged       bool
	ConvergenceTime time.Duration
	// RecoveryTime is how long after the restart instant the SD settled
	// (zero without a restart, when it settled before the reboot finished,
	// or when it never settled).
	RecoveryTime time.Duration
	// Recovery is the core-level restart accounting: adopted vs released
	// leases, verified vs lost placements. LostPlacements must be zero.
	Recovery core.RecoveryStats
	// Leaked counts receiver-side reservations still held after the
	// protocol stopped and every lease had time to run out, including — via
	// the durable store — unexpired holds of nodes that stayed dead. The
	// whole point of the exercise: this must be zero.
	Leaked int
	// Reserve is the cluster-wide reservation protocol accounting.
	Reserve rebalance.ReserveStats
	// AnycastRetries and OrphanAccepts count the scribe-level recoveries.
	AnycastRetries, OrphanAccepts int
	// Migrations/MigrationsCompleted count rebalancing activity; the
	// FailedDead pair counts migrations aborted against dead endpoints.
	Migrations, MigrationsCompleted  int
	FailedDeadDest, FailedDeadSource int
	Artifacts
}

// liveSD is the utilization standard deviation over servers still alive.
func liveSD(vb *core.VBundle) float64 {
	var s metrics.Stats
	for i, u := range vb.UtilizationSnapshot() {
		if vb.Ring.Network().Alive(vb.Ring.Node(i).Addr()) {
			s.Add(u)
		}
	}
	return s.Std()
}

// inject takes the run's victims down. By default it takes current receivers
// in ring order. A crash-restart run takes the nodes whose durable state is
// worth reconciling: first any node still holding reservation leases (the crash
// orphans them — the rejoin, or for dead nodes the store-backed audit, must
// clean up), then current receivers, then any live node so small topologies
// still run the full schedule; the DHT gateway at node 0 is never crashed,
// the boot path's query state lives there. The first Victims crashed reboot
// after RestartAfter; the next CrashForever stay down.
func (o *FaultOutcome) inject(vb *core.VBundle) {
	p, net := o.Params, vb.Ring.Network()
	receiver := func(i int) bool { return vb.Rebalancer.Agent(i).Role() == rebalance.RoleReceiver }
	first, want, passes := 0, p.Victims, []func(int) bool{receiver}
	if p.Crash {
		first, want = 1, p.Victims+p.CrashForever
		passes = []func(int) bool{
			func(i int) bool { return vb.Rebalancer.Agent(i).HeldLeases() > 0 },
			receiver,
			func(int) bool { return true },
		}
	}
	for _, eligible := range passes {
		for i := first; i < vb.Ring.Size() && len(o.Victims)+len(o.Dead) < want; i++ {
			addr := vb.Ring.Node(i).Addr()
			if !net.Alive(addr) || !eligible(i) {
				continue
			}
			net.Crash(addr)
			switch {
			case !p.Crash:
				o.Victims = append(o.Victims, i)
			case len(o.Victims) < p.Victims:
				o.Victims = append(o.Victims, i)
				vb.Engine.AtGlobal(vb.Now()+p.RestartAfter, func() { net.Restart(addr) })
			default:
				o.Dead = append(o.Dead, i)
			}
		}
	}
}

// RunFaults executes one fault-injection run.
func RunFaults(p FaultParams) (*FaultOutcome, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	out := &FaultOutcome{Params: p}
	r := p.spine()
	r.opts.MessageLoss = p.DropRate
	r.opts.Rebalance.LeaseDuration = p.LeaseDuration
	if p.Crash {
		r.opts.Store = store.NewMem()
	}
	r.before = func(vb *core.VBundle) {
		out.BeforeSD = liveSD(vb)
		out.VMsBefore = vb.Cluster.NumVMs()
	}
	r.sample = func(vb *core.VBundle) { out.SD.Add(vb.Now(), liveSD(vb)) }
	if p.DropRate > 0 || p.Victims > 0 || p.CrashForever > 0 {
		r.repair = func(vb *core.VBundle) func() {
			vb.StartMaintenance(p.Heartbeat)
			return vb.StopMaintenance
		}
		// The grace period covers release retries plus a full lease term, so
		// anything still reserved afterwards — in a live table or in a dead
		// node's durable store — is a genuine leak.
		r.quiesce = p.LeaseDuration + p.UpdateInterval
	}
	r.window = func(vb *core.VBundle) {
		vb.RunFor(p.At)
		out.inject(vb)
		if rest := p.Duration - p.At; rest > 0 {
			vb.RunFor(rest)
		}
	}
	vb, art, err := r.run()
	if err != nil {
		return nil, err
	}
	out.Artifacts = art

	out.AfterSD = liveSD(vb)
	out.VMsAfter = vb.Cluster.NumVMs()
	out.Converged, out.ConvergenceTime = convergencePoint(out.SD, out.AfterSD)
	if rebootDone := p.At + p.RestartAfter; p.Crash && out.Converged && out.ConvergenceTime > rebootDone {
		out.RecoveryTime = out.ConvergenceTime - rebootDone
	}
	placed := 0
	for _, srv := range vb.Cluster.Servers() {
		placed += srv.NumVMs()
	}
	out.LostVMs = out.VMsAfter - placed
	out.Recovery = vb.Recovery
	out.Leaked = vb.Rebalancer.LeakedReservations()
	out.Reserve = vb.Rebalancer.ReserveStats()
	for _, s := range vb.Scribes {
		retries, orphans := s.AnycastStats()
		out.AnycastRetries += retries
		out.OrphanAccepts += orphans
	}
	out.Migrations = vb.Rebalancer.MigrationsTriggered()
	st := vb.Migration.Stats()
	out.MigrationsCompleted = st.Completed
	out.FailedDeadDest = st.FailedDeadDest
	out.FailedDeadSource = st.FailedDeadSource
	return out, nil
}

// convergencePoint finds the first sample after which the SD stays within
// a small band of its final value — the run's settling time.
func convergencePoint(series metrics.TimeSeries, final float64) (bool, time.Duration) {
	pts := series.Points()
	if len(pts) == 0 {
		return false, 0
	}
	band := final + 0.02
	settle := -1
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].V > band {
			break
		}
		settle = i
	}
	if settle < 0 {
		return false, 0
	}
	return true, pts[settle].T
}

// GatePassed reports whether the run met the recovery gate: every VM
// accounted for and no reservation leaked across the fault.
func (o *FaultOutcome) GatePassed() bool {
	return o.LostVMs == 0 && o.Recovery.LostPlacements == 0 && o.Leaked == 0 &&
		o.VMsBefore == o.VMsAfter
}

func (o *FaultOutcome) verdict() string {
	if o.GatePassed() {
		return "PASS"
	}
	return "FAIL"
}

// Write renders one run's verdict: the recovery report of a crash run, the
// convergence and leak report of a pause run.
func (o *FaultOutcome) Write(w io.Writer) {
	p := o.Params
	servers := p.Spec.Racks * p.Spec.ServersPerRack
	conv := "did not settle"
	if o.Converged {
		conv = fmt.Sprintf("settled at %s", fmtDur(o.ConvergenceTime))
	}
	if p.Crash {
		writeHeader(w, "Crash-restart", fmt.Sprintf("%d servers, %.1f%% loss, %d crash(es) at %s, reboot after %s, %d left dead",
			servers, p.DropRate*100, len(o.Victims), fmtDur(p.At), fmtDur(p.RestartAfter), len(o.Dead)))
		fmt.Fprintf(w, "SD %.4f → %.4f (%s, recovery %s); migrations=%d (completed %d)\n",
			o.BeforeSD, o.AfterSD, conv, fmtDur(o.RecoveryTime), o.Migrations, o.MigrationsCompleted)
		fmt.Fprintf(w, "restarts=%d blank-boots=%d leases adopted=%d released=%d; placements verified=%d stale=%d lost=%d\n",
			o.Recovery.Restarts, o.Recovery.BlankBoots, o.Recovery.AdoptedLeases, o.Recovery.ReleasedLeases,
			o.Recovery.VerifiedPlacements, o.Recovery.StalePlacements, o.Recovery.LostPlacements)
		fmt.Fprintf(w, "VMs %d → %d (lost %d); leaked reservations at quiesce: %d — gate %s\n",
			o.VMsBefore, o.VMsAfter, o.LostVMs, o.Leaked, o.verdict())
		return
	}
	writeHeader(w, "Resilience", fmt.Sprintf("%d servers, %.1f%% loss, %d receiver kill(s) at %s",
		servers, p.DropRate*100, len(o.Victims), fmtDur(p.At)))
	fmt.Fprintf(w, "SD %.4f → %.4f (%s); migrations=%d (completed %d, dead-dest %d, dead-src %d)\n",
		o.BeforeSD, o.AfterSD, conv, o.Migrations, o.MigrationsCompleted, o.FailedDeadDest, o.FailedDeadSource)
	fmt.Fprintf(w, "reservations: accepted=%d renewed=%d released=%d expired=%d orphan-released=%d dup=%d unknown=%d\n",
		o.Reserve.Accepted, o.Reserve.Renewed, o.Reserve.Released, o.Reserve.Expired,
		o.Reserve.OrphanReleases, o.Reserve.DuplicateRelease, o.Reserve.UnknownRelease)
	fmt.Fprintf(w, "anycast retries=%d orphan accepts=%d; leaked reservations at quiesce: %d\n",
		o.AnycastRetries, o.OrphanAccepts, o.Leaked)
}

// WriteFaultTable renders a sweep summary, one row per run, in the format
// of the sweep's fault kind (a sweep varies the loss rate, not the kind).
func WriteFaultTable(w io.Writer, outs []*FaultOutcome) {
	if len(outs) > 0 && outs[0].Params.Crash {
		writeHeader(w, "Crash-restart sweep", "recovery gates vs loss and downtime")
		fmt.Fprintf(w, "%-6s %-8s %-9s %-9s %-9s %-9s %-9s %-7s %-6s %-7s %-5s\n",
			"loss", "crashes", "downtime", "SD-pre", "SD-post", "recovery", "adopted", "rel'd", "lost", "leaked", "gate")
		for _, o := range outs {
			fmt.Fprintf(w, "%-6s %-8d %-9s %-9.4f %-9.4f %-9s %-9d %-7d %-6d %-7d %-5s\n",
				fmt.Sprintf("%.1f%%", o.Params.DropRate*100), len(o.Victims)+len(o.Dead),
				fmtDur(o.Params.RestartAfter), o.BeforeSD, o.AfterSD, fmtDur(o.RecoveryTime),
				o.Recovery.AdoptedLeases, o.Recovery.ReleasedLeases, o.LostVMs, o.Leaked, o.verdict())
		}
		return
	}
	writeHeader(w, "Resilience sweep", "convergence and reservation leaks vs message loss")
	fmt.Fprintf(w, "%-6s %-6s %-9s %-9s %-11s %-7s %-8s %-8s %-7s\n",
		"loss", "kills", "SD-pre", "SD-post", "settled", "migr", "retries", "orphans", "leaked")
	for _, o := range outs {
		conv := "never"
		if o.Converged {
			conv = fmtDur(o.ConvergenceTime)
		}
		fmt.Fprintf(w, "%-6s %-6d %-9.4f %-9.4f %-11s %-7d %-8d %-8d %-7d\n",
			fmt.Sprintf("%.1f%%", o.Params.DropRate*100), len(o.Victims),
			o.BeforeSD, o.AfterSD, conv, o.MigrationsCompleted,
			o.AnycastRetries, o.OrphanAccepts, o.Leaked)
	}
}
