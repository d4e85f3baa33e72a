package cli

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"
)

// profile holds the profiling destinations one run requested. It
// complements internal/runtimeobs: the runtime trace says *where* the host
// time went structurally (worker, barrier, merge); a profile says which
// functions burned it.
type profile struct {
	pprofAddr    string
	cpuProfile   string
	memProfile   string
	blockProfile string
	mutexProfile string
}

// register adds the five profiling flags to fs.
func (c *profile) register(fs *flag.FlagSet) {
	fs.StringVar(&c.pprofAddr, "pprofaddr", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile at exit to this file")
	fs.StringVar(&c.blockProfile, "blockprofile", "", "write a goroutine blocking profile at exit to this file (epoch-barrier waits show up here)")
	fs.StringVar(&c.mutexProfile, "mutexprofile", "", "write a mutex contention profile at exit to this file")
}

// start arms every requested profiler. The returned stop function writes
// the at-exit profiles and must be called once when the measured work is
// done (a no-op when nothing was requested).
func (c *profile) start() (stop func() error, err error) {
	if c.pprofAddr != "" {
		// Bind synchronously so a bad address fails the run immediately;
		// serve in the background for its duration.
		ln, err := net.Listen("tcp", c.pprofAddr)
		if err != nil {
			return nil, fmt.Errorf("-pprofaddr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: pprof server on http://%s/debug/pprof/\n", prog, ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: pprof server: %v\n", prog, err)
			}
		}()
	}

	var cpuFile *os.File
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return nil, err
		}
		cpuFile = f
	}
	if c.blockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if c.mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}

	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("close %s: %w", c.cpuProfile, err))
			}
		}
		if c.blockProfile != "" {
			errs = append(errs, writeProfile("block", c.blockProfile))
			runtime.SetBlockProfileRate(0)
		}
		if c.mutexProfile != "" {
			errs = append(errs, writeProfile("mutex", c.mutexProfile))
			runtime.SetMutexProfileFraction(0)
		}
		if c.memProfile != "" {
			runtime.GC() // materialize up-to-date allocation stats
			errs = append(errs, writeProfile("heap", c.memProfile))
		}
		return errors.Join(errs...)
	}, nil
}

// writeProfile writes one runtime profile (heap, block, mutex) to path.
func writeProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteTo(f, 0); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
