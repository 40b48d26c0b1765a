// Package profiling gives every simulating vb subcommand the same two pprof
// flags. The scaling work in this repository is profile-driven (see
// DESIGN.md); cmd/vb starts the profiles behind flag parsing and stops them
// in its one epilogue, so a run that fails keeps its profiles.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Config holds the profile output paths, normally bound to the -cpuprofile
// and -memprofile flags with AddFlags.
type Config struct {
	CPU string
	Mem string
}

// AddFlags registers -cpuprofile and -memprofile on fs.
func (c *Config) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.Mem, "memprofile", "", "write a heap profile to this file on exit")
}

// Start begins CPU profiling when configured and returns a stop function
// that finishes the CPU profile and writes the heap profile. Callers must
// run stop on every path out, not past an os.Exit; with no profiles
// configured both Start and stop are no-ops.
func (c *Config) Start() (stop func(), err error) {
	var cpuFile *os.File
	if c.CPU != "" {
		cpuFile, err = os.Create(c.CPU)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: start CPU profile: %w", err)
		}
	}
	mem := c.Mem
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // measure live heap, not garbage awaiting collection
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "profiling: write heap profile: %v\n", err)
			}
		}
	}, nil
}
