// Package costbenefit implements the migration cost-benefit module the
// paper applies before actual migrations (§V.B: "Cost-benefit analysis is
// applied before any actual migrations are performed") and names as ongoing
// work in §VII: "a cost-benefit module that is capable of predicting the
// overhead due to live migrations and the benefit from resource shuffling".
//
// The model prices a proposed migration in bandwidth-seconds:
//
//   - Cost: the migration stream occupies the network for the predicted
//     transfer time (memory × dirty factor / link rate) on both NICs, plus
//     the service disruption of the stop-and-copy downtime, during which
//     the VM's current demand goes unserved.
//   - Benefit: the bandwidth the VM is currently denied on its congested
//     source (demand minus delivered share) is recovered for as long as
//     the imbalance is expected to persist (the horizon, by default one
//     rebalance interval — the soonest the system would get another
//     chance to act anyway).
//
// A migration is approved when the predicted benefit exceeds the predicted
// cost by the configured margin.
package costbenefit

import (
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/migration"
)

// Config tunes the analysis.
type Config struct {
	// Horizon is how long the recovered bandwidth is credited; by default
	// one paper rebalance interval (25 minutes).
	Horizon time.Duration
	// Margin is the required benefit/cost ratio; 1 accepts break-even
	// moves, higher values demand clearer wins. Defaults to 1.2.
	Margin float64
}

func (c Config) withDefaults() Config {
	if c.Horizon == 0 {
		c.Horizon = 25 * time.Minute
	}
	if c.Margin == 0 {
		c.Margin = 1.2
	}
	return c
}

// Analysis is the priced outcome of a proposed migration.
type Analysis struct {
	// CostMbpsSec prices the migration traffic and downtime.
	CostMbpsSec float64
	// BenefitMbpsSec prices the recovered bandwidth over the horizon.
	BenefitMbpsSec float64
	// TransferTime is the predicted migration duration.
	TransferTime time.Duration
	// Approved reports whether benefit/cost clears the margin.
	Approved bool
}

// Analyzer prices proposed migrations with the migration package's cost
// model.
type Analyzer struct {
	cfg Config
}

// New creates an analyzer.
func New(cfg Config) *Analyzer {
	return &Analyzer{cfg: cfg.withDefaults()}
}

// Proposal describes a candidate migration for pricing.
type Proposal struct {
	// VM is the candidate.
	VM *cluster.VM
	// DeliveredMbps is the bandwidth the VM currently receives on its
	// congested source (from the tc shaper).
	DeliveredMbps float64
}

// Analyze prices the proposal. The benefit is the VM's unserved demand
// (effective demand minus delivered share) credited over the horizon; the
// cost is the migration stream's occupancy of source and destination NICs
// plus the downtime-disrupted demand.
func (a *Analyzer) Analyze(p Proposal) Analysis {
	out := Analysis{TransferTime: migration.Duration(p.VM.Reservation.MemMB)}

	// Cost: the transfer occupies LinkMbps on two NICs for the transfer
	// time...
	transferSec := out.TransferTime.Seconds()
	out.CostMbpsSec = 2 * migration.LinkMbps * transferSec
	// ...and the VM's demand is unserved during the stop-and-copy.
	out.CostMbpsSec += p.VM.EffectiveDemandBW() * migration.Downtime.Seconds()

	// Benefit: unserved demand recovered for the horizon.
	unserved := p.VM.EffectiveDemandBW() - p.DeliveredMbps
	if unserved < 0 {
		unserved = 0
	}
	out.BenefitMbpsSec = unserved * a.cfg.Horizon.Seconds()

	out.Approved = out.BenefitMbpsSec >= out.CostMbpsSec*a.cfg.Margin
	return out
}
