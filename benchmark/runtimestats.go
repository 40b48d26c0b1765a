package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
)

// rtSample is one reading of the Go runtime's own accounting, taken at a
// phase boundary. The CPU classes are refreshed by the runtime at the end of
// each GC cycle, so the setup/run split of GC CPU is exact only up to the
// last cycle that completed before the boundary.
type rtSample struct {
	allocObjects uint64
	allocBytes   uint64
	gcCycles     uint64
	gcPauseS     float64
	gcCPUS       float64
	markAssistS  float64
}

// sub is what the runtime accounted between two readings, a the later.
func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{
		allocObjects: a.allocObjects - b.allocObjects,
		allocBytes:   a.allocBytes - b.allocBytes,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcPauseS:     a.gcPauseS - b.gcPauseS,
		gcCPUS:       a.gcCPUS - b.gcCPUS,
		markAssistS:  a.markAssistS - b.markAssistS,
	}
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	return rtSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPUS:       s[3].Value.Float64(),
		markAssistS:  s[4].Value.Float64(),
		gcPauseS:     gc.PauseTotal.Seconds(),
	}
}

// liveHeapMB forces a collection and returns the heap still in use, in MB.
// The caller keeps the stack reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// peakRSSMB is the process's maximum resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
