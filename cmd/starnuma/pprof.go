package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers
	"os"
	"runtime"
	"runtime/pprof"
)

// profileFlags wires Go's profiling facilities into experiment runs:
// CPU and heap profile files plus an optional live net/http/pprof
// endpoint. Profiling observes the host only and never touches model
// code, so it sits outside the simulation determinism contract.
type profileFlags struct {
	cpu, mem, addr string
}

func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	f := &profileFlags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.addr, "pprof", "", "serve live net/http/pprof on this address (e.g. localhost:6060)")
	return f
}

// start begins profiling and returns the stop function the caller must
// run before exiting; stop writes the heap profile after a final GC. The
// pprof server starts best-effort in the background, reporting listen
// errors to stderr rather than failing the run.
func (f *profileFlags) start() (stop func(), err error) {
	var cpuFile *os.File
	if f.cpu != "" {
		cpuFile, err = os.Create(f.cpu)
		if err == nil {
			if err = pprof.StartCPUProfile(cpuFile); err != nil {
				cpuFile.Close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if f.addr != "" {
		go func() {
			// http.DefaultServeMux carries the /debug/pprof handlers via
			// the blank import.
			if err := http.ListenAndServe(f.addr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "starnuma: pprof server: %v\n", err)
			}
		}()
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if f.mem == "" {
			return
		}
		mf, err := os.Create(f.mem)
		if err == nil {
			runtime.GC() // settle live-heap statistics
			err = pprof.WriteHeapProfile(mf)
			if cerr := mf.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "starnuma: -memprofile: %v\n", err)
		}
	}, nil
}
