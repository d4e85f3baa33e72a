package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot walks up to the module root so the tests work regardless of the
// working directory go test chose.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// wantRe extracts `// want "pattern"` expectation comments.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// parseWants returns the expected-diagnostic patterns of every file in dir,
// keyed by file:line.
func parseWants(t *testing.T, dir string) map[string][]*regexp.Regexp {
	t.Helper()
	out := make(map[string][]*regexp.Regexp)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				key := fmt.Sprintf("%s:%d", path, i+1)
				out[key] = append(out[key], re)
			}
		}
	}
	return out
}

// runGolden analyzes the testdata package in subdir (loaded under asPath so
// path-scoped rules apply) and compares the diagnostics against the files'
// `// want` comments.
func runGolden(t *testing.T, subdir, asPath string, analyzers []*Analyzer) {
	t.Helper()
	root := repoRoot(t)
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", subdir)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := loader.AnalyzeDir(dir, asPath, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, dir)

	matched := make(map[string][]bool)
	for key, res := range wants {
		matched[key] = make([]bool, len(res))
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		ok := false
		for i, re := range wants[key] {
			if !matched[key][i] && re.MatchString(d.Msg) {
				matched[key][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, res := range wants {
		for i, re := range res {
			if !matched[key][i] {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, re)
			}
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, "determinism", "spcd/internal/core", []*Analyzer{Determinism})
}

func TestMapOrderGolden(t *testing.T) {
	runGolden(t, "maporder", "spcd/internal/policy", []*Analyzer{MapOrder})
}

func TestForeachRetainGolden(t *testing.T) {
	runGolden(t, "foreachretain", "spcd/internal/frtest", []*Analyzer{ForeachRetain})
}

func TestLockCheckGolden(t *testing.T) {
	runGolden(t, "lockcheck", "spcd/internal/lctest", []*Analyzer{LockCheck})
}

func TestErrcheckIOGolden(t *testing.T) {
	runGolden(t, "errcheckio", "spcd/cmd/ectest", []*Analyzer{ErrcheckIO})
}

// TestErrcheckIOCLIGolden: the rule follows the CLIs' file writing into
// internal/cli.
func TestErrcheckIOCLIGolden(t *testing.T) {
	runGolden(t, "errcheckiocli", "spcd/internal/cli", []*Analyzer{ErrcheckIO})
}

func TestObsVirtualTimeGolden(t *testing.T) {
	runGolden(t, "obsvirtualtime", "spcd/internal/obs", []*Analyzer{ObsVirtualTime})
}

func TestObsVirtualTimeSiteGolden(t *testing.T) {
	runGolden(t, "obsvirtualtimesite", "spcd/internal/obstest", []*Analyzer{ObsVirtualTime})
}

func TestSweepParallelGolden(t *testing.T) {
	runGolden(t, "sweepparallel", "spcd/internal/sweep", []*Analyzer{SweepParallel})
}

func TestFaultsiteGolden(t *testing.T) {
	runGolden(t, "faultsite", "spcd/internal/faultinject", []*Analyzer{Faultsite})
}

func TestFaultsiteUseGolden(t *testing.T) {
	runGolden(t, "faultsiteuse", "spcd/internal/fitest", []*Analyzer{Faultsite})
}

func TestSuppressionGolden(t *testing.T) {
	runGolden(t, "suppress", "spcd/internal/vm", All)
}

// TestMalformedIgnore verifies that a directive without a reason is itself
// reported. (This cannot live in a golden file: appending a want comment to
// the directive would supply the missing reason.)
func TestMalformedIgnore(t *testing.T) {
	dir := t.TempDir()
	src := `package tmp

func f(m map[int]int) int {
	n := 0
	//lint:ignore maporder
	for _, v := range m {
		n += v
	}
	return n
}
`
	if err := os.WriteFile(filepath.Join(dir, "tmp.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := loader.AnalyzeDir(dir, "spcd/internal/vm", All)
	if err != nil {
		t.Fatal(err)
	}
	var sawBad, sawMap bool
	for _, d := range diags {
		switch d.Rule {
		case "badignore":
			sawBad = true
		case "maporder":
			sawMap = true
		}
	}
	if !sawBad {
		t.Errorf("malformed directive not reported; got %v", diags)
	}
	if !sawMap {
		t.Errorf("map range not reported despite malformed (inert) directive; got %v", diags)
	}
}

// TestCleanTree is belt and braces next to the top-level lint_test.go: the
// analyzers must pass over their own module.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	loader, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := loader.AnalyzeModule(All, AllModule)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
