// Package profiling gives the command-line tools their -cpuprofile and
// -memprofile flags.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts CPU profiling to cpuPath (when non-empty) and returns a
// stop function that finishes the CPU profile and writes a heap profile
// to memPath (when non-empty). It is the CLI counterpart of warlockd's
// -pprof HTTP handlers: hot-path regressions stay diagnosable without
// standing up the daemon. Either path may be empty; the stop function
// must run before the process exits (os.Exit skips defers).
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("mem profile: %w", err)
			}
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("mem profile: %w", err)
			}
			return f.Close()
		}
		return nil
	}, nil
}
