package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
)

// testTool registers every shared flag plus one of each checked tool-flag
// kind on a fresh flag set.
type testTool struct {
	o           *Options
	fs          *flag.FlagSet
	intensities *[]float64
}

func newTestTool(flags Flag) testTool {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := &Options{Flags: flags, Bench: "CG", Suite: "nas", ClassName: "test", Threads: 8, Reps: 1, Shootdown: "none"}
	o.Register(fs)
	o.Count("gran", 0, "")
	o.Fraction("faults", 0, "")
	return testTool{o: o, fs: fs, intensities: o.Fractions("intensities", "0,1", "")}
}

const allFlags = Bench | Suite | Kernels | Class | Threads | Seed | Policies | Reps |
	Parallel | Shards | Shootdown | RuntimeObs | Profile

// parse parses args on a tool taking every shared flag and resolves them.
func parse(args ...string) (testTool, error) {
	t := newTestTool(allFlags)
	if err := t.fs.Parse(args); err != nil {
		return t, err
	}
	return t, t.o.Resolve()
}

// TestBadFlagsAreErrors feeds every out-of-range value the shared checks
// cover: each must come back as an error naming its flag, never a panic.
func TestBadFlagsAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-threads", "0"},
		{"-threads", "-1"},
		{"-reps", "0"},
		{"-parallel", "-1"},
		{"-shards", "-2"},
		{"-class", "huge"},
		{"-shootdown", "tlbi"},
		{"-bench", "ZZ"},
		{"-suite", "spec"},
		{"-gran", "-5"},
		{"-faults", "NaN"},
		{"-faults", "3"},
		{"-faults", "-0.5"},
		{"-intensities", "0,5"},
		{"-intensities", "0,NaN"},
		{"-intensities", "0,+Inf"},
		{"-intensities", "0,x"},
		{"-intensities", ","},
	} {
		_, err := parse(args...)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: err = %v, want an error naming %s", args, err, args[0])
		}
	}
	// An odd producer/consumer thread count is the workload's error; it
	// names the benchmark it was building.
	if _, err := parse("-suite", "pc", "-threads", "5"); err == nil || !strings.Contains(err.Error(), "-suite pc") {
		t.Errorf("pc at 5 threads: err = %v", err)
	}
}

// TestResolve checks that valid flags resolve to the setup they name.
func TestResolve(t *testing.T) {
	tt, err := parse("-suite", "parsec", "-bench", "dedup", "-class", "tiny",
		"-shootdown", "ipi", "-intensities", "0.25")
	if err != nil {
		t.Fatal(err)
	}
	o := tt.o
	got := fmt.Sprintf("%s %s %s %v", o.Class().Name, o.Workload().Name(), o.Machine().Shootdown, *tt.intensities)
	if want := "tiny dedup ipi [0.25]"; got != want {
		t.Errorf("resolved %q, want %q", got, want)
	}
	if got := Split(" os, ,spcd "); strings.Join(got, "|") != "os|spcd" {
		t.Errorf("Split = %q", got)
	}

	// Without -suite, -bench pc names the producer/consumer benchmark and
	// every other name an NPB kernel.
	for bench, want := range map[string]string{"pc": "producer-consumer", "SP": "SP"} {
		tt := newTestTool(Bench | Class | Threads)
		if err := tt.fs.Parse([]string{"-bench", bench}); err != nil {
			t.Fatal(err)
		}
		if err := tt.o.Resolve(); err != nil || tt.o.Workload().Name() != want {
			t.Errorf("-bench %s without -suite: %v, %v; want %s", bench, tt.o.Workload(), err, want)
		}
	}
}
