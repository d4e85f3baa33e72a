// Package analysis is spcd's repo-native static-analysis framework. It
// enforces the invariants the simulator's reproduction claims rest on:
// bit-for-bit determinism for a given seed, lock discipline in the few
// concurrent paths, and the API contracts that are otherwise stated only in
// comments (notably hashtab.ForEach's no-retention rule).
//
// The framework is deliberately small and built only on the standard
// library's go/ast, go/parser and go/types: an Analyzer inspects one
// type-checked package at a time and reports Diagnostics with file/line
// positions. Findings can be suppressed per line with
//
//	//lint:ignore <rule> <reason>
//
// placed on the offending line or on the line directly above it. The reason
// is mandatory; a malformed directive is itself reported.
//
// The rules ship in this package (see All) and run in two harnesses: the
// cmd/spcdlint CLI, and the top-level lint_test.go which makes
// `go test ./...` fail on any new violation.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a message.
type Diagnostic struct {
	Pos  token.Position `json:"-"`
	File string         `json:"file"`
	Line int            `json:"line"`
	Col  int            `json:"col"`
	Rule string         `json:"rule"`
	Msg  string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Msg, d.Rule)
}

// Analyzer is one static-analysis rule.
type Analyzer struct {
	// Name identifies the rule in diagnostics and in //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description shown by `spcdlint -rules`.
	Doc string
	// Run inspects the package held by pass and reports findings via
	// pass.Reportf.
	Run func(pass *Pass)
}

// All lists every analyzer in the order they run.
var All = []*Analyzer{
	Determinism,
	MapOrder,
	ForeachRetain,
	LockCheck,
	ErrcheckIO,
	ObsVirtualTime,
	SweepParallel,
	Faultsite,
}

// ByName returns the analyzer with the given rule name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// knownRule reports whether name is a rule that can appear in a
// //lint:ignore directive: any per-package or module analyzer.
func knownRule(name string) bool {
	if ByName(name) != nil {
		return true
	}
	return ModuleByName(name) != nil
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	// Path is the package's import path ("spcd/internal/core"). Rules use
	// it to decide whether they apply.
	Path string
	Pkg  *types.Package
	Info *types.Info

	rule  string
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:  position,
		File: position.Filename,
		Line: position.Line,
		Col:  position.Column,
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when type information is incomplete.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if obj := p.Info.ObjectOf(id); obj != nil {
		return obj
	}
	return nil
}

// ImportedPkg reports the import path of the package an identifier refers
// to, or "" when id is not a package name. It falls back to scanning the
// file's import table when type information is incomplete, so the
// determinism rule keeps working even on packages that fail to type-check.
func (p *Pass) ImportedPkg(file *ast.File, id *ast.Ident) string {
	if obj := p.ObjectOf(id); obj != nil {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return "" // resolved to a non-package object (local shadow)
	}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	rule   string
	reason string
	file   string
	line   int // line the directive suppresses
	used   int // findings suppressed
	pos    token.Pos
}

const ignorePrefix = "//lint:ignore"

// IgnoreInfo describes one //lint:ignore directive for the `spcdlint
// -ignores` audit: where it is, what it suppresses, and whether it is still
// live (unused directives are additionally reported as unusedignore
// findings, so they cannot merge; the audit makes the live ones reviewable).
type IgnoreInfo struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Rule       string `json:"rule"`
	Reason     string `json:"reason"`
	Suppressed int    `json:"suppressed"` // findings this directive suppressed
}

// parseIgnores extracts the //lint:ignore directives of every file. A
// directive suppresses findings of the named rule on its own source line and
// on the following line (covering both trailing comments and
// comment-above-statement placement).
func parseIgnores(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{
						Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Rule: "badignore",
						Msg:  "malformed //lint:ignore directive: want `//lint:ignore <rule> <reason>`",
					})
					continue
				}
				if !knownRule(fields[0]) {
					*diags = append(*diags, Diagnostic{
						Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Rule: "badignore",
						Msg:  fmt.Sprintf("//lint:ignore names unknown rule %q (try `spcdlint -rules`)", fields[0]),
					})
					continue
				}
				out = append(out, &ignoreDirective{
					rule:   fields[0],
					reason: strings.TrimSpace(strings.TrimPrefix(rest, fields[0])),
					file:   pos.Filename,
					line:   pos.Line,
					pos:    c.Pos(),
				})
			}
		}
	}
	return out
}

// runAnalyzersRaw executes the per-package analyzers over pkg and returns
// the raw findings, before suppression.
func runAnalyzersRaw(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	pass := &Pass{
		Fset:  pkg.Fset,
		Files: pkg.Files,
		Path:  pkg.Path,
		Pkg:   pkg.Types,
		Info:  pkg.Info,
		diags: &raw,
	}
	for _, a := range analyzers {
		pass.rule = a.Name
		a.Run(pass)
	}
	return raw
}

// ApplyIgnores filters raw findings through the //lint:ignore directives of
// every file in pkgs and returns the surviving diagnostics sorted by
// position, plus the directive audit. A directive that suppresses nothing is
// reported as unusedignore — but only when its rule was actually among the
// activeRules of this run, so linting a rule subset cannot false-flag the
// other rules' directives as stale.
func ApplyIgnores(pkgs []*Package, raw []Diagnostic, activeRules map[string]bool) ([]Diagnostic, []IgnoreInfo) {
	var kept []Diagnostic
	var ignores []*ignoreDirective
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		ignores = append(ignores, parseIgnores(pkg.Fset, pkg.Files, &kept)...)
	}
	for _, d := range raw {
		suppressed := false
		for _, ig := range ignores {
			if ig.rule == d.Rule && ig.file == d.File && (d.Line == ig.line || d.Line == ig.line+1) {
				ig.used++
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	var audit []IgnoreInfo
	for _, ig := range ignores {
		if ig.used == 0 && activeRules[ig.rule] {
			pos := fset.Position(ig.pos)
			kept = append(kept, Diagnostic{
				Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Rule: "unusedignore",
				Msg:  fmt.Sprintf("//lint:ignore %s suppresses no finding; remove it", ig.rule),
			})
		}
		audit = append(audit, IgnoreInfo{
			File: ig.file, Line: ig.line, Rule: ig.rule,
			Reason: ig.reason, Suppressed: ig.used,
		})
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].File != kept[j].File {
			return kept[i].File < kept[j].File
		}
		if kept[i].Line != kept[j].Line {
			return kept[i].Line < kept[j].Line
		}
		return kept[i].Col < kept[j].Col
	})
	sort.Slice(audit, func(i, j int) bool {
		if audit[i].File != audit[j].File {
			return audit[i].File < audit[j].File
		}
		return audit[i].Line < audit[j].Line
	})
	return kept, audit
}

// activeRuleSet builds the rule-name set of one run, for ApplyIgnores.
func activeRuleSet(analyzers []*Analyzer, modAnalyzers []*ModuleAnalyzer) map[string]bool {
	set := make(map[string]bool)
	for _, a := range analyzers {
		set[a.Name] = true
	}
	for _, a := range modAnalyzers {
		set[a.Name] = true
	}
	return set
}

// RunAnalyzers executes the per-package analyzers over pkg and returns the
// surviving diagnostics sorted by position. Suppressed findings are dropped;
// an //lint:ignore directive that suppresses nothing is reported as unused
// so stale suppressions cannot linger.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	raw := runAnalyzersRaw(pkg, analyzers)
	kept, _ := ApplyIgnores([]*Package{pkg}, raw, activeRuleSet(analyzers, nil))
	return kept
}

// deterministicPkgs are the simulator packages whose output feeds the
// paper-reproduction figures: everything here must be bit-for-bit
// deterministic for a fixed seed. The set covers the detection/mapping
// pipeline and the reporting/output paths (trace, heatmap, report), whose
// rendered bytes the determinism regression test compares across runs.
var deterministicPkgs = map[string]bool{
	"spcd":                      true,
	"spcd/internal/core":        true,
	"spcd/internal/vm":          true,
	"spcd/internal/cache":       true,
	"spcd/internal/commmatrix":  true,
	"spcd/internal/mapping":     true,
	"spcd/internal/matching":    true,
	"spcd/internal/policy":      true,
	"spcd/internal/workloads":   true,
	"spcd/internal/engine":      true,
	"spcd/internal/trace":       true,
	"spcd/internal/heatmap":     true,
	"spcd/internal/report":      true,
	"spcd/internal/topology":    true,
	"spcd/internal/stats":       true,
	"spcd/internal/energy":      true,
	"spcd/internal/hashtab":     true,
	"spcd/internal/obs":         true,
	"spcd/internal/sweep":       true,
	"spcd/internal/faultinject": true,
	"spcd/internal/scenario":    true,
}

// isDeterministicPkg reports whether importPath is one of the simulator
// packages under the determinism contract.
func isDeterministicPkg(importPath string) bool {
	return deterministicPkgs[importPath]
}

// isCmdPkg reports whether importPath is one of the CLI tools or
// internal/cli, their shared front end, which writes their output files.
func isCmdPkg(importPath string) bool {
	return strings.HasPrefix(importPath, "spcd/cmd/") || importPath == "spcd/internal/cli"
}
