// Package cli is the one front end of the simulation CLIs (chaossweep,
// commviz, npbsuite, spcdobs, spcdserve, spcdsim, spcdtrace).
// Each tool names the shared flags it takes and its defaults for them;
// this package registers those flags, rejects out-of-range values, and
// resolves the rest into the paper's experiment setup: the workload class,
// the Table I machine with its shootdown cost model armed, the workload,
// the host profilers and the runtime-observability collector. It also
// writes output files and reports fatal errors, so every tool treats bad
// input the same way: a message naming the flag and exit status 1.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"spcd"
	"spcd/internal/runtimeobs"
	"spcd/internal/workloads"
)

// Flag is a set of shared flags.
type Flag uint

// The shared flags. Profile stands for the five profiling flags
// (-pprofaddr, -cpuprofile, -memprofile, -blockprofile, -mutexprofile).
const (
	Bench Flag = 1 << iota
	Suite
	Kernels
	Class
	Threads
	Seed
	Policies
	Reps
	Parallel
	Shards
	Shootdown
	RuntimeObs
	Profile
)

// Options holds one tool's shared flags. The tool sets Flags and its
// defaults in the value fields, calls Register before adding its own flags,
// then Parse; afterwards the fields hold the parsed values and the methods
// return the resolved setup.
type Options struct {
	Flags Flag // the shared flags the tool takes

	Bench      string // kernel name; without -suite, "pc" names the producer/consumer benchmark
	Suite      string // nas, parsec or pc
	Kernels    string // comma-separated kernel subset
	ClassName  string // test, tiny, small or A
	Threads    int
	Seed       int64
	Policies   string // comma-separated policy names
	Reps       int
	Parallel   int // concurrent experiments; 0 = GOMAXPROCS
	Shards     int // intra-run engine workers; 0 = sequential engine
	Shootdown  string
	RuntimeDir string

	fs       *flag.FlagSet
	checks   []func() error // range checks of the tool's own flags
	prof     profile
	class    spcd.Class
	machine  *spcd.Machine
	workload spcd.Workload
	runtime  *runtimeobs.Collector
	stopProf func() error
}

// prog names the running tool in error messages and warnings.
var prog = filepath.Base(os.Args[0])

// Register adds the shared flags in o.Flags to fs, with o's field values as
// their defaults.
func (o *Options) Register(fs *flag.FlagSet) {
	o.fs = fs
	str := func(f Flag, p *string, name, usage string) {
		if o.Flags&f != 0 {
			fs.StringVar(p, name, *p, usage)
		}
	}
	num := func(f Flag, p *int, name, usage string) {
		if o.Flags&f != 0 {
			fs.IntVar(p, name, *p, usage)
		}
	}
	bench := "benchmark: a kernel of -suite (nas: BT CG DC EP FT IS LU MG SP UA)"
	if o.Flags&Suite == 0 {
		bench = "benchmark: BT CG DC EP FT IS LU MG SP UA, or pc for producer/consumer"
	}
	str(Bench, &o.Bench, "bench", bench)
	str(Suite, &o.Suite, "suite", "workload suite: nas, parsec, pc")
	str(Kernels, &o.Kernels, "kernels", "comma-separated kernel subset (empty: all ten)")
	str(Class, &o.ClassName, "class", "workload class: test, tiny, small, A")
	num(Threads, &o.Threads, "threads", "threads per benchmark (>= 1)")
	if o.Flags&Seed != 0 {
		fs.Int64Var(&o.Seed, "seed", o.Seed, "master seed; every run seed derives from it")
	}
	str(Policies, &o.Policies, "policies", "comma-separated policies (os, random, oracle, spcd, tlb, hwc)")
	num(Reps, &o.Reps, "reps", "repetitions per configuration (>= 1)")
	num(Parallel, &o.Parallel, "parallel", "concurrent experiments (0 = GOMAXPROCS, 1 = sequential); results are identical for every value")
	num(Shards, &o.Shards, "shards", "intra-run engine workers (0 = sequential engine; >=1 = epoch-sharded engine, identical results for every value >= 1)")
	str(Shootdown, &o.Shootdown, "shootdown", "TLB shootdown cost model: none, ipi, or hatric")
	str(RuntimeObs, &o.RuntimeDir, "runtimeobs", "write host runtime-observability artifacts (runtime_trace.json, runtime_summary.json) to this directory")
	if o.Flags&Profile != 0 {
		o.prof.register(fs)
	}
}

// Count registers a tool's own int flag that must be >= 0.
func (o *Options) Count(name string, value int, usage string) *int {
	p := o.fs.Int(name, value, usage)
	o.checks = append(o.checks, func() error { return atLeast(name, *p, 0) })
	return p
}

// Fraction registers a tool's own float flag that must be finite and in
// [0, 1], such as a fault intensity.
func (o *Options) Fraction(name string, value float64, usage string) *float64 {
	p := o.fs.Float64(name, value, usage)
	o.checks = append(o.checks, func() error { return fraction(name, *p) })
	return p
}

// Fractions registers a tool's own comma-separated list of fractions. A
// value that is set but names no entries is an error.
func (o *Options) Fractions(name, value, usage string) *[]float64 {
	raw := o.fs.String(name, value, usage)
	out := new([]float64)
	o.checks = append(o.checks, func() error {
		*out = nil
		for _, s := range Split(*raw) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return flagErr(name, s, err)
			}
			if err := fraction(name, v); err != nil {
				return err
			}
			*out = append(*out, v)
		}
		if *raw != "" && len(*out) == 0 {
			return fmt.Errorf("-%s %q names no values", name, *raw)
		}
		return nil
	})
	return out
}

// Parse parses the command line and then does the shared set-up, exiting
// with a message on any error: it checks every value, resolves the class,
// machine and workload, starts the requested profilers and runtime
// collector, and warns when -parallel × -shards oversubscribes the host.
func (o *Options) Parse() {
	Check(o.fs.Parse(os.Args[1:])) // flag.CommandLine exits on its own errors
	Check(o.Resolve())
	if o.Flags&Profile != 0 {
		stop, err := o.prof.start()
		Check(err)
		o.stopProf = stop
	}
	if o.RuntimeDir != "" {
		o.runtime = runtimeobs.New()
	}
	if o.Flags&(Parallel|Shards) == Parallel|Shards {
		warnOversubscribed(o.Parallel, o.Shards)
	}
}

// Resolve checks the parsed values of the flags the tool takes and
// resolves the class, the machine and (with -bench) the workload. Every
// error names its flag.
func (o *Options) Resolve() error {
	var errs []error
	has := func(f Flag) bool { return o.Flags&f != 0 }
	if has(Threads) {
		errs = append(errs, atLeast("threads", o.Threads, 1))
	}
	if has(Reps) {
		errs = append(errs, atLeast("reps", o.Reps, 1))
	}
	if has(Parallel) {
		errs = append(errs, atLeast("parallel", o.Parallel, 0))
	}
	if has(Shards) {
		errs = append(errs, atLeast("shards", o.Shards, 0))
	}
	for _, check := range o.checks {
		errs = append(errs, check())
	}
	if has(Class) {
		cls, err := spcd.ClassByName(o.ClassName)
		o.class = cls
		errs = append(errs, flagErr("class", o.ClassName, err))
	}
	o.machine = spcd.DefaultMachine()
	if has(Shootdown) {
		errs = append(errs, flagErr("shootdown", o.Shootdown, spcd.ConfigureShootdown(o.machine, o.Shootdown)))
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if has(Bench) {
		suite, name := o.Suite, "-bench "+o.Bench
		if has(Suite) {
			name = "-suite " + o.Suite + " " + name
		} else if suite = "nas"; o.Bench == "pc" {
			suite = "pc"
		}
		w, err := workloads.ByName(suite, o.Bench, o.Threads, o.class)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		o.workload = w
	}
	return nil
}

// Class returns the resolved -class.
func (o *Options) Class() spcd.Class { return o.class }

// Machine returns the Table I machine with the -shootdown cost model armed.
// Every call returns the same machine.
func (o *Options) Machine() *spcd.Machine { return o.machine }

// Workload returns the -suite/-bench workload at -threads and -class.
func (o *Options) Workload() spcd.Workload { return o.workload }

// Runtime returns the runtime-observability collector, nil without
// -runtimeobs.
func (o *Options) Runtime() *runtimeobs.Collector { return o.runtime }

// RunOptions returns -shards and the -runtimeobs collector as the run
// settings every library entry point takes.
func (o *Options) RunOptions() spcd.RunOptions {
	return spcd.RunOptions{Shards: o.Shards, Runtime: o.runtime}
}

// Finish writes the runtime-observability artifacts, when requested, and
// stops the profilers, exiting with a message on any error. Call it once
// the tool's work is done.
func (o *Options) Finish() {
	if o.runtime != nil {
		Check(runtimeobs.WriteArtifacts(o.RuntimeDir, o.runtime))
		fmt.Fprintf(os.Stderr, "wrote runtime artifacts to %s\n", o.RuntimeDir)
	}
	if o.stopProf != nil {
		Check(o.stopProf())
	}
}

// Split splits a comma-separated list, dropping blank entries.
func Split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// WriteFile creates path, fills it through write and closes it, returning
// the first write or close error, so a full disk cannot silently truncate
// an output. On success it notes the path on stderr.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// Fatal prints err prefixed with the tool's name and exits with status 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(1)
}

// Check calls Fatal when err is non-nil.
func Check(err error) {
	if err != nil {
		Fatal(err)
	}
}

// warnOversubscribed notes (without failing) when sweep-level parallelism
// times intra-run sharding would oversubscribe the host: outputs stay
// byte-identical, only wall-clock time suffers.
func warnOversubscribed(parallel, shards int) {
	if shards <= 0 {
		return
	}
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if total := workers * shards; total > runtime.GOMAXPROCS(0) {
		fmt.Fprintf(os.Stderr, "%s: warning: -parallel %d x -shards %d = %d goroutines exceeds GOMAXPROCS=%d; "+
			"runs stay byte-identical but will contend for cores\n",
			prog, workers, shards, total, runtime.GOMAXPROCS(0))
	}
}

func atLeast(name string, v, min int) error {
	if v < min {
		return fmt.Errorf("-%s %d: must be >= %d", name, v, min)
	}
	return nil
}

func fraction(name string, v float64) error {
	if math.IsNaN(v) || v < 0 || v > 1 {
		return fmt.Errorf("-%s %g: must be in [0, 1]", name, v)
	}
	return nil
}

// flagErr prefixes err, when non-nil, with the flag and its value.
func flagErr(name, value string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("-%s %s: %w", name, value, err)
}
