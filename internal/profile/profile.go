// Package profile implements the -cpuprofile, -memprofile and -trace
// flags the CLIs share.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// Run runs f under the requested profilers (an empty path skips one),
// making sure they are stopped and written before the caller decides its
// exit status. Failures to start a profiler are returned; failures while
// writing or closing one at the end are reported on stderr, prefixed by
// tool, since f's own result is already decided by then.
func Run(tool, cpuPath, memPath, tracePath string, f func() error) error {
	if cpuPath != "" {
		pf, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := pf.Close(); err != nil { // a lost close is a truncated profile
				fmt.Fprintf(os.Stderr, "%s: cpuprofile: %v\n", tool, err)
			}
		}()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
	}
	if tracePath != "" {
		tf, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer func() {
			rtrace.Stop()
			if err := tf.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: trace: %v\n", tool, err)
			}
		}()
		if err := rtrace.Start(tf); err != nil {
			return err
		}
	}
	if memPath != "" {
		defer func() {
			mf, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", tool, err)
				return
			}
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", tool, err)
			}
			if err := mf.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", tool, err)
			}
		}()
	}
	return f()
}
