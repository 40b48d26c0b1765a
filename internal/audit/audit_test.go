package audit_test

import (
	"bytes"
	"flag"
	"strings"
	"testing"
	"time"

	"vbundle/internal/audit"
	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/obs"
	"vbundle/internal/simnet"
	"vbundle/internal/topology"
	"vbundle/internal/workload"
)

func smallSpec(racks, perRack int) topology.Spec {
	return topology.Spec{
		Racks:            racks,
		ServersPerRack:   perRack,
		RacksPerPod:      4,
		NICMbps:          1000,
		Oversubscription: 8,
		LANHop:           time.Millisecond,
		LocalDelivery:    10 * time.Microsecond,
	}
}

func bwRes(mbps float64) cluster.Resources {
	return cluster.Resources{CPU: 1, MemMB: 128, BandwidthMbps: mbps}
}

// TestHealthyRunCleanAudit sweeps a real rebalancing run — skewed demand,
// active leases, migrations in flight — and requires zero violations: the
// auditor's baseline false-positive gate.
func TestHealthyRunCleanAudit(t *testing.T) {
	tr := obs.New()
	vb, err := core.New(core.Options{Topology: smallSpec(4, 4), Seed: 7, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	var vms []*cluster.VM
	for i := 0; i < 48; i++ {
		vm, _, err := vb.BootVM("Tenant", bwRes(50), bwRes(1000))
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	for i, vm := range vms {
		if i%3 == 0 {
			vb.Workloads.Attach(vm.ID, workload.Flat(600))
		} else {
			vb.Workloads.Attach(vm.ID, workload.Flat(30))
		}
	}
	vb.Workloads.Start(time.Minute)
	a := vb.AttachAudit(audit.Config{Every: time.Minute})
	vb.StartServices()
	vb.RunFor(2 * time.Hour)
	vb.StopServices()

	if a.Sweeps() < 100 {
		t.Errorf("Sweeps = %d, want >= 100 over 2h at 1m cadence", a.Sweeps())
	}
	if a.Violations() != 0 {
		var buf bytes.Buffer
		a.Report(&buf)
		t.Errorf("healthy run reported violations:\n%s", buf.String())
	}
	// The counters live in the trace registry under audit/*.
	snap := tr.Registry().Snapshot()
	if snap["audit/sweeps"] != int64(a.Sweeps()) {
		t.Errorf("registry audit/sweeps = %d, auditor says %d", snap["audit/sweeps"], a.Sweeps())
	}
	if snap["audit/violations"] != 0 {
		t.Errorf("registry audit/violations = %d, want 0", snap["audit/violations"])
	}
	var buf bytes.Buffer
	a.Report(&buf)
	if !strings.HasPrefix(buf.String(), "audit: sweeps=") || !strings.Contains(buf.String(), "violations=0") {
		t.Errorf("report format: %q", buf.String())
	}
}

// TestAuditCoherentUnderFailures kills and revives a node mid-run: a dead
// node's leases and placements must not read as violations to any check.
func TestAuditCoherentUnderFailures(t *testing.T) {
	vb, err := core.New(core.Options{Topology: smallSpec(2, 4), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := vb.AttachAudit(audit.Config{Every: time.Second})
	vb.RunFor(3 * time.Second)
	vb.Ring.Network().Crash(simnet.Addr(5))
	vb.RunFor(3 * time.Second)
	vb.Ring.Network().Attach(simnet.Addr(5), vb.Ring.Node(5))
	vb.RunFor(3 * time.Second)
	if a.Sweeps() == 0 {
		t.Fatal("no sweeps ran")
	}
	if a.Violations() != 0 {
		var buf bytes.Buffer
		a.Report(&buf)
		t.Errorf("kill/revive produced violations:\n%s", buf.String())
	}
}

// corruptPlacement makes the cluster lie: the VM is listed on server 0's
// roster but the location map has never heard of it. Server.Admit is the
// low-level roster mutation the placement engines wrap — calling it without
// Cluster.Place is exactly the inconsistency CheckPlacement exists to catch.
func corruptPlacement(t *testing.T, vb *core.VBundle) *cluster.VM {
	t.Helper()
	vm, err := vb.Cluster.CreateVM("rogue", bwRes(10), bwRes(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := vb.Cluster.Server(0).Admit(vm); err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestAuditDetectsPlacementCorruption(t *testing.T) {
	tr := obs.New()
	vb, err := core.New(core.Options{Topology: smallSpec(1, 4), Seed: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	vm := corruptPlacement(t, vb)
	a := vb.AttachAudit(audit.Config{Every: time.Second, MaxDetail: 4})
	vb.RunFor(10 * time.Second)

	if a.Violations() == 0 {
		t.Fatal("corrupted placement went undetected")
	}
	if d := a.Detail(); len(d) != 4 {
		t.Errorf("detail holds %d records, want MaxDetail=4", len(d))
	} else {
		if d[0].Check != audit.CheckPlacement {
			t.Errorf("first violation is %v, want placement", d[0].Check)
		}
		if d[0].Node != 0 || d[0].VM != int64(vm.ID) {
			t.Errorf("violation blames node=%d vm=%d, want node=0 vm=%d", d[0].Node, d[0].VM, vm.ID)
		}
	}
	var buf bytes.Buffer
	a.Report(&buf)
	out := buf.String()
	if !strings.Contains(out, "placement_agreement") {
		t.Errorf("report does not name the check:\n%s", out)
	}
	if !strings.Contains(out, "... and") {
		t.Errorf("report does not note the truncated detail:\n%s", out)
	}
	// Each violation leaves a KindAuditViolation instant in the trace.
	instants := 0
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindAuditViolation {
			instants++
		}
	}
	if instants != a.Violations() {
		t.Errorf("%d trace instants for %d violations", instants, a.Violations())
	}
	snap := tr.Registry().Snapshot()
	if snap["audit/placement_agreement"] != int64(a.Violations()) {
		t.Errorf("registry per-check counter = %d, want %d", snap["audit/placement_agreement"], a.Violations())
	}
}

// TestAuditDetectsStaleDemandSum: a sum the setter marked stale stays stale
// across sweeps, because the demand-ledger check reads the cache without
// filling it; a demand written past Cluster.SetDemandBW leaves the cached
// sum marked current but wrong, and the check blames its server.
func TestAuditDetectsStaleDemandSum(t *testing.T) {
	vb, err := core.New(core.Options{Topology: smallSpec(1, 4), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vm, res, err := vb.BootVM("Tenant", bwRes(50), bwRes(1000))
	if err != nil {
		t.Fatal(err)
	}
	srv := vb.Cluster.Server(res.Server)
	vb.Cluster.SetDemandBW(vm, 100)
	a := vb.AttachAudit(audit.Config{Every: time.Second})
	vb.RunFor(3 * time.Second)
	if _, clean := srv.CachedDemandBW(); clean {
		t.Fatal("an audit sweep filled a stale demand sum")
	}
	if a.Violations() != 0 {
		t.Fatalf("%d violations before anything went wrong", a.Violations())
	}

	if got := srv.DemandBW(); got != 100 {
		t.Fatalf("DemandBW = %g, want 100", got)
	}
	vm.Demand.BandwidthMbps = 300 // past the setter: the sum still claims 100
	vb.RunFor(3 * time.Second)
	d := a.Detail()
	if len(d) == 0 {
		t.Fatal("a stale demand sum marked current went undetected")
	}
	if d[0].Check != audit.CheckDemandLedger || d[0].Node != res.Server {
		t.Errorf("first violation is %v on node %d, want demand_ledger on %d", d[0].Check, d[0].Node, res.Server)
	}
}

func TestAuditFailFastPanics(t *testing.T) {
	vb, err := core.New(core.Options{Topology: smallSpec(1, 4), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	corruptPlacement(t, vb)
	vb.AttachAudit(audit.Config{Every: time.Second, FailFast: true})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("fail-fast auditor did not panic on a violation")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "placement_agreement") {
			t.Errorf("panic %v does not carry the check name", r)
		}
	}()
	vb.RunFor(5 * time.Second)
}

func TestNilAndDisabledAuditor(t *testing.T) {
	var a *audit.Auditor
	if a.Sweeps() != 0 || a.Violations() != 0 || a.Detail() != nil {
		t.Error("nil auditor reads nonzero")
	}
	var buf bytes.Buffer
	a.Report(&buf)
	if buf.Len() != 0 {
		t.Errorf("nil auditor wrote a report: %q", buf.String())
	}

	if got := audit.Attach(audit.Config{}, audit.Targets{}); got != nil {
		t.Error("Attach with Every=0 returned a live auditor")
	}
	if got := audit.Attach(audit.Config{Every: time.Second}, audit.Targets{}); got != nil {
		t.Error("Attach without an engine returned a live auditor")
	}
}

func TestFlags(t *testing.T) {
	var f audit.Flags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f.AddFlags(fs)
	if err := fs.Parse([]string{"-audit", "-audit-every", "250ms"}); err != nil {
		t.Fatal(err)
	}
	cfg := f.Config()
	if cfg.Every != 250*time.Millisecond {
		t.Errorf("Every = %v, want 250ms", cfg.Every)
	}

	var off audit.Flags
	fs2 := flag.NewFlagSet("x", flag.ContinueOnError)
	off.AddFlags(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := off.Config(); got != (audit.Config{}) {
		t.Errorf("disabled flags yield %+v, want zero config", got)
	}
}
