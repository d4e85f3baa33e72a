package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeedProvenance enforces where random streams may come from: every seed
// handed to rand.NewSource (and the v2 generators) must dataflow from the
// run-seed derivation chain — DeriveSeed, siteSeed, or a seed-named
// config field or parameter. Literal seeds silently fork a
// stream that ignores the run seed; wall-clock-derived seeds
// (time.Now().UnixNano() and friends) and address-derived seeds
// (uintptr(unsafe.Pointer(...))) make runs irreproducible outright. The
// rule follows one level of local dataflow (a variable assigned the seed
// expression) and consumes the module facts store: a helper in another
// package whose returns all derive from the seed chain is itself
// seed-deriving, so honest wrappers need no annotations.
var SeedProvenance = &ModuleAnalyzer{
	Name: "seed-provenance",
	Doc:  "rand.NewSource seeds must derive from DeriveSeed/siteSeed or a seed field, never literals, clocks, or addresses",
	Run:  runSeedProvenance,
}

// FactSeedDerives is the facts-store key marking functions whose every
// return value dataflows from the seed-derivation chain.
const FactSeedDerives = "seed-provenance.derives"

// deriveFuncs are the canonical seed-derivation functions, matched by name
// in any package so the root module's wrappers qualify too.
var deriveFuncs = map[string]bool{
	"DeriveSeed": true,
	"siteSeed":   true,
}

// isSeedName reports whether an identifier names a seed by convention.
func isSeedName(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// provBad is one disqualifying leaf found in a seed expression.
type provBad struct {
	desc string
}

// provenance classifies the leaves of a seed expression.
type provenance struct {
	seed  int // leaves that derive from the seed chain
	other int // opaque leaves (non-seed variables, unknown calls)
	bads  []provBad
}

// seedChecker walks seed expressions within one function.
type seedChecker struct {
	mod  *Module
	node *Node
	// local maps a variable object to the expression last assigned to it in
	// this function — the one level of local dataflow the rule follows.
	local map[types.Object]ast.Expr
}

// walk accumulates the provenance of expression e.
func (c *seedChecker) walk(e ast.Expr, p *provenance, depth int, visiting map[types.Object]bool) {
	if depth > 6 {
		p.other++
		return
	}
	info := c.node.Pkg.Info
	if t := info.TypeOf(e); t != nil {
		if basic, ok := t.Underlying().(*types.Basic); ok && basic.Kind() == types.UnsafePointer {
			p.bads = append(p.bads, provBad{"address-derived (unsafe.Pointer)"})
			return
		}
	}
	switch v := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		// Literals are neutral: fine as salt next to a seed leaf, a finding
		// when they are all there is.
	case *ast.Ident:
		if isSeedName(v.Name) {
			p.seed++
			return
		}
		obj := info.Uses[v]
		if obj == nil {
			obj = info.Defs[v]
		}
		if rhs, ok := c.local[obj]; ok && obj != nil && !visiting[obj] {
			visiting[obj] = true
			c.walk(rhs, p, depth+1, visiting)
			delete(visiting, obj)
			return
		}
		p.other++
	case *ast.SelectorExpr:
		if isSeedName(v.Sel.Name) {
			p.seed++
			return
		}
		p.other++
	case *ast.BinaryExpr:
		c.walk(v.X, p, depth+1, visiting)
		c.walk(v.Y, p, depth+1, visiting)
	case *ast.UnaryExpr:
		c.walk(v.X, p, depth+1, visiting)
	case *ast.IndexExpr:
		c.walk(v.X, p, depth+1, visiting)
	case *ast.CallExpr:
		c.walkCall(v, p, depth, visiting)
	default:
		p.other++
	}
}

// walkCall classifies a call appearing inside a seed expression.
func (c *seedChecker) walkCall(call *ast.CallExpr, p *provenance, depth int, visiting map[types.Object]bool) {
	pkg := c.node.Pkg
	fn := staticCallee(pkg, call)
	if fn == nil {
		// Conversion? Pass through the operand.
		if t := pkg.Info.TypeOf(call.Fun); t != nil {
			if _, isSig := t.Underlying().(*types.Signature); !isSig && len(call.Args) == 1 {
				c.walk(call.Args[0], p, depth+1, visiting)
				return
			}
		}
		p.other++
		return
	}
	name := fn.Name()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	switch {
	case path == "time":
		p.bads = append(p.bads, provBad{"derived from the wall clock (time." + name + ")"})
	case deriveFuncs[name] || isSeedName(name):
		p.seed++
	case c.mod.Graph.NodeOf(fn) != nil && c.mod.Facts.Bool(c.mod.Graph.NodeOf(fn), FactSeedDerives):
		p.seed++
	case (path == "math/rand" || path == "math/rand/v2") && randConstructors[name]:
		// A source built inline: its own seed argument is checked at its
		// own call site; the constructed value is seed-neutral here.
		p.seed++
	default:
		p.other++
	}
}

// collectLocals records the last expression assigned to each local variable
// of the node, the table walk's one-level Ident resolution reads.
func collectLocals(node *Node) map[types.Object]ast.Expr {
	out := make(map[types.Object]ast.Expr)
	body := node.Body()
	if body == nil {
		return out
	}
	info := node.Pkg.Info
	inspectSkipNested(body, body, func(n ast.Node) {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return
			}
			for i, lhs := range v.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						out[obj] = v.Rhs[i]
					} else if obj := info.Uses[id]; obj != nil {
						out[obj] = v.Rhs[i]
					}
				}
			}
		case *ast.ValueSpec:
			if len(v.Names) != len(v.Values) {
				return
			}
			for i, name := range v.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = v.Values[i]
				}
			}
		}
	})
	return out
}

// seedCallArgs returns the seed-carrying arguments of a rand constructor
// call, or nil when call is not one.
func seedCallArgs(pkg *Package, call *ast.CallExpr) []ast.Expr {
	fn := staticCallee(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	switch fn.Pkg().Path() {
	case "math/rand":
		if fn.Name() == "NewSource" {
			return call.Args
		}
	case "math/rand/v2":
		switch fn.Name() {
		case "NewSource", "NewPCG":
			return call.Args
		}
	}
	return nil
}

func runSeedProvenance(mp *ModulePass) {
	mod := mp.Mod

	// Phase 1: publish seed-deriving facts, so cross-package helper
	// wrappers (func runSeed(...) int64 { return DeriveSeed(...) }) count
	// as derivation sources in phase 2.
	for _, n := range mod.Graph.Nodes {
		if n.Fn == nil || n.Body() == nil {
			continue
		}
		if deriveFuncs[n.Fn.Name()] || isSeedName(n.Fn.Name()) {
			mod.Facts.Set(n, FactSeedDerives, true)
			continue
		}
		c := &seedChecker{mod: mod, node: n, local: collectLocals(n)}
		sawReturn, allDerive := false, true
		body := n.Body()
		inspectSkipNested(body, body, func(an ast.Node) {
			ret, ok := an.(*ast.ReturnStmt)
			if !ok || len(ret.Results) == 0 {
				return
			}
			sawReturn = true
			var p provenance
			for _, res := range ret.Results {
				c.walk(res, &p, 0, map[types.Object]bool{})
			}
			if p.seed == 0 || len(p.bads) > 0 {
				allDerive = false
			}
		})
		if sawReturn && allDerive {
			mod.Facts.Set(n, FactSeedDerives, true)
		}
	}

	// Phase 2: check every rand constructor call site.
	for _, n := range mod.Graph.Nodes {
		body := n.Body()
		if body == nil {
			continue
		}
		c := &seedChecker{mod: mod, node: n, local: collectLocals(n)}
		inspectSkipNested(body, body, func(an ast.Node) {
			call, ok := an.(*ast.CallExpr)
			if !ok {
				return
			}
			args := seedCallArgs(n.Pkg, call)
			for _, arg := range args {
				var p provenance
				c.walk(arg, &p, 0, map[types.Object]bool{})
				for _, bad := range p.bads {
					mp.Reportf(call.Pos(),
						"rand source seed is %s; same-seed runs cannot reproduce — derive it via DeriveSeed/siteSeed or a config seed field",
						bad.desc)
				}
				if len(p.bads) > 0 {
					continue
				}
				if p.seed == 0 {
					if p.other == 0 {
						mp.Reportf(call.Pos(),
							"rand source seed is a bare literal, detached from the run seed; derive it via DeriveSeed/siteSeed or a config seed field so streams stay positional")
					} else {
						mp.Reportf(call.Pos(),
							"rand source seed does not dataflow from DeriveSeed/siteSeed or a seed-named field/parameter; ad-hoc seeds fork streams the run seed cannot reproduce")
					}
				}
			}
		})
	}
}
