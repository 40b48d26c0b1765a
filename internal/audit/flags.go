package audit

import (
	"flag"
	"time"
)

// Flags binds the auditor flags of every simulating vb subcommand:
//
//	-audit             enable the online invariant auditor
//	-audit-every 1s    virtual-time sweep interval
//
// The auditor reports to stderr only — experiment stdout must stay
// byte-identical with the auditor on and off.
type Flags struct {
	Enable bool
	Every  time.Duration
}

// AddFlags registers the auditor flags on fs.
func (f *Flags) AddFlags(fs *flag.FlagSet) {
	fs.BoolVar(&f.Enable, "audit", false, "run the online invariant auditor (read-only sweeps; violations reported on stderr, nonzero exit)")
	fs.DurationVar(&f.Every, "audit-every", time.Second, "virtual-time interval between auditor sweeps")
}

// Config converts the parsed flags to an auditor config (zero when the
// auditor is off, which Attach treats as disabled).
func (f *Flags) Config() Config {
	if !f.Enable {
		return Config{}
	}
	return Config{Every: f.Every}
}
