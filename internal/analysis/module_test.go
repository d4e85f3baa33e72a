package analysis

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// loadTestdataModule loads the given testdata packages (subdir → import
// path, dependencies first) into one loader and assembles the Module view
// over exactly those packages.
func loadTestdataModule(t *testing.T, specs [][2]string) (*Module, []string) {
	t.Helper()
	root := repoRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	var dirs []string
	for _, s := range specs {
		dir := filepath.Join(root, "internal", "analysis", "testdata", "src", s[0])
		pkg, err := loader.Load(dir, s[1])
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
		dirs = append(dirs, dir)
	}
	return NewModule(root, pkgs), dirs
}

// runGoldenModule runs the module analyzers over the given testdata
// packages and compares the surviving diagnostics against the `// want`
// comments of every package directory.
func runGoldenModule(t *testing.T, specs [][2]string, analyzers []*ModuleAnalyzer) {
	t.Helper()
	mod, dirs := loadTestdataModule(t, specs)
	raw := RunModuleAnalyzers(mod, analyzers)
	diags, _ := ApplyIgnores(mod.Pkgs, raw, activeRuleSet(nil, analyzers))

	wants := make(map[string][]*wantEntry)
	for _, dir := range dirs {
		for key, res := range parseWants(t, dir) {
			for _, re := range res {
				wants[key] = append(wants[key], &wantEntry{re: re})
			}
		}
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		ok := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Msg) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, res := range wants {
		for _, w := range res {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

type wantEntry struct {
	re      interface{ MatchString(string) bool }
	matched bool
}

func TestDeterminismFlowGolden(t *testing.T) {
	runGoldenModule(t, [][2]string{
		{"dfhelper", "spcd/internal/dfhelper"},
		{"determinismflow", "spcd/internal/engine"},
	}, []*ModuleAnalyzer{DeterminismFlow})
}

func TestSeedProvenanceGolden(t *testing.T) {
	runGoldenModule(t, [][2]string{
		{"spdep", "spcd/internal/spdep"},
		{"seedprov", "spcd/internal/sptest"},
	}, []*ModuleAnalyzer{SeedProvenance})
}

func TestVtimeUnitsGolden(t *testing.T) {
	runGoldenModule(t, [][2]string{
		{"vtimeunits", "spcd/internal/vtest"},
	}, []*ModuleAnalyzer{VtimeUnits})
}

// The two runtimeobs-isolation halves load fake packages under the real
// import paths, so they live in separate tests: one loader cannot register
// two directories as "spcd/internal/runtimeobs".
func TestRuntimeobsIsolationSinkPurityGolden(t *testing.T) {
	runGoldenModule(t, [][2]string{
		{"runtimeobsvm", "spcd/internal/vm"},
		{"runtimeobssink", "spcd/internal/runtimeobs"},
	}, []*ModuleAnalyzer{RuntimeobsIsolation})
}

func TestRuntimeobsIsolationReadbackGolden(t *testing.T) {
	runGoldenModule(t, [][2]string{
		{"runtimeobsapi", "spcd/internal/runtimeobs"},
		{"runtimeobsengine", "spcd/internal/engine"},
	}, []*ModuleAnalyzer{RuntimeobsIsolation})
}

// edgeTo reports whether n has an edge of the given kind to a node whose
// name ends in suffix.
func edgeTo(n *Node, suffix string, kind EdgeKind) bool {
	for _, e := range n.Edges {
		if e.Kind == kind && strings.HasSuffix(e.Callee.Name, suffix) {
			return true
		}
	}
	return false
}

// TestEngineLoopsAreEntryPoints: determinism-flow matches the engine's
// entry points by name, so renaming an access loop would silently drop it
// from the rule. Both loops and the shard worker body must exist in the
// real engine package, and each must be an entry point.
func TestEngineLoopsAreEntryPoints(t *testing.T) {
	root := repoRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(filepath.Join(root, "internal", "engine"), "spcd/internal/engine")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"minClockLoop", "epochLoop", "simulateCore"}
	found := make(map[string]bool, len(names))
	for _, n := range NewModule(root, []*Package{pkg}).Graph.Nodes {
		if n.Fn == nil || n.Pkg != pkg || !slices.Contains(names, n.Fn.Name()) {
			continue
		}
		found[n.Fn.Name()] = true
		if !isEntryNode(n) {
			t.Errorf("%s is not a determinism-flow entry point", n.Name)
		}
	}
	for _, name := range names {
		if !found[name] {
			t.Errorf("internal/engine has no function %s; update isEntryNode and this test together", name)
		}
	}
}

func TestCallGraphBuilder(t *testing.T) {
	mod, _ := loadTestdataModule(t, [][2]string{{"callgraph", "spcd/internal/cgtest"}})
	g := mod.Graph

	node := func(name string) *Node {
		t.Helper()
		n := g.NodeNamed(name)
		if n == nil {
			var names []string
			for _, c := range g.Nodes {
				names = append(names, c.Name)
			}
			t.Fatalf("node %q missing; have %v", name, names)
		}
		return n
	}

	// Interface dispatch: Speak edges to both Sound implementations.
	speak := node("cgtest.Speak")
	if !edgeTo(speak, "Dog).Sound", EdgeInterface) || !edgeTo(speak, "Cat).Sound", EdgeInterface) {
		t.Errorf("Speak should edge to Dog.Sound and Cat.Sound via interface CHA; edges: %v", speak.Edges)
	}

	// Func-value binding: f := named; f().
	ufv := node("cgtest.UseFuncValue")
	if !edgeTo(ufv, "cgtest.named", EdgeFuncValue) {
		t.Errorf("UseFuncValue should edge to named via the binding layer; edges: %v", ufv.Edges)
	}

	// Signature fallback: the call-result func value matches both literals
	// returned by mk.
	laundered := node("cgtest.Laundered")
	if !edgeTo(laundered, "cgtest.mk$1", EdgeFuncValue) || !edgeTo(laundered, "cgtest.mk$2", EdgeFuncValue) {
		t.Errorf("Laundered should edge to both mk literals by signature identity; edges: %v", laundered.Edges)
	}

	// Truly unresolvable: recorded as Dynamic, never dropped.
	opaque := node("cgtest.CallOpaque")
	if len(opaque.Dynamic) != 1 {
		t.Errorf("CallOpaque should record exactly one Dynamic site, got %d (edges %v)", len(opaque.Dynamic), opaque.Edges)
	}

	// Goroutine literal: its body is a node with a static edge to named.
	spawn1 := node("cgtest.Spawn$1")
	if !edgeTo(spawn1, "cgtest.named", EdgeStatic) {
		t.Errorf("Spawn$1 should statically edge to named; edges: %v", spawn1.Edges)
	}

	// Callback heuristic: a closure handed to sort.Slice edges from the
	// caller so taint cannot hide inside external callees.
	sorts := node("cgtest.Sorts")
	if !edgeTo(sorts, "cgtest.Sorts$1", EdgeCallback) {
		t.Errorf("Sorts should edge to its sort.Slice closure as a callback; edges: %v", sorts.Edges)
	}
}
