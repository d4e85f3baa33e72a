package spcd_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// cliTools are the simulation CLIs whose flag surface is pinned.
var cliTools = []string{
	"chaossweep", "commviz", "npbsuite",
	"spcdobs", "spcdserve", "spcdsim", "spcdtrace",
}

// TestCLIFlagSurface pins every simulation CLI's flags: one golden line per
// flag with its name, type and default exactly as the tool's -h output
// reports them. The flag package prints int and int64 flags both as "int"
// and omits zero defaults, so the golden records the printed type and the
// type's zero value where no default is shown. Help text is not pinned.
func TestCLIFlagSurface(t *testing.T) {
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, tool := range cliTools {
		args = append(args, "./cmd/"+tool)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	var got bytes.Buffer
	for _, tool := range cliTools {
		out, err := exec.Command(filepath.Join(bin, tool), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", tool, err, out)
		}
		for _, f := range parseFlagHelp(string(out)) {
			fmt.Fprintf(&got, "%s %s\n", tool, f)
		}
	}

	golden := filepath.Join("testdata", "cli_flags.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("CLI flag surface differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got.Bytes(), want)
	}

	// A negative tenant count is an error naming the flag, not a panic.
	t.Run("negative tenants", func(t *testing.T) {
		for _, args := range [][]string{
			{"spcdserve", "-tenants", "-1"},
			{"chaossweep", "-churn", "-tenants", "-1"},
		} {
			out, err := exec.Command(filepath.Join(bin, args[0]), args[1:]...).CombinedOutput()
			if err == nil || !strings.Contains(string(out), "-tenants") || strings.Contains(string(out), "panic:") {
				t.Errorf("%s: %v\n%s\nwant a non-zero exit naming -tenants, without a panic", strings.Join(args, " "), err, out)
			}
		}
	})
}

// flagDefault matches the suffix the flag package appends to a non-zero
// default: ` (default "x")` for strings, ` (default 3)` for numbers and
// ` (default true)` for bools. Matching the value's shape keeps help text
// that merely ends in "(default ...)" from reading as a default.
var flagDefault = map[string]*regexp.Regexp{
	"bool":   regexp.MustCompile(` \(default (true)\)$`),
	"string": regexp.MustCompile(` \(default ("(?:[^"\\]|\\.)*")\)$`),
	"int":    regexp.MustCompile(` \(default (-?[0-9]+)\)$`),
	"uint":   regexp.MustCompile(` \(default ([0-9]+)\)$`),
	"float":  regexp.MustCompile(` \(default (-?[0-9.e+-]+)\)$`),
}

// parseFlagHelp turns flag.PrintDefaults output into "-name type default"
// lines in the printed (sorted) order.
func parseFlagHelp(help string) []string {
	type entry struct{ name, typ, usage string }
	var entries []*entry
	for _, line := range strings.Split(help, "\n") {
		switch {
		case strings.HasPrefix(line, "  -"):
			head, usage, _ := strings.Cut(strings.TrimPrefix(line, "  -"), "\t")
			name, typ, _ := strings.Cut(head, " ")
			entries = append(entries, &entry{name: name, typ: typ, usage: usage})
		case strings.HasPrefix(line, "    \t") && len(entries) > 0:
			entries[len(entries)-1].usage = strings.TrimPrefix(line, "    \t")
		}
	}
	zero := map[string]string{"": "false", "string": `""`, "int": "0", "uint": "0", "float": "0"}
	out := make([]string, len(entries))
	for i, e := range entries {
		typ, def := e.typ, zero[e.typ]
		if typ == "" {
			typ = "bool"
		}
		if re := flagDefault[typ]; re != nil {
			if m := re.FindStringSubmatch(e.usage); m != nil {
				def = m[1]
			}
		}
		out[i] = fmt.Sprintf("-%s %s %s", e.name, typ, def)
	}
	return out
}
