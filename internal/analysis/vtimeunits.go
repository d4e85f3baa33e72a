package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// VtimeUnits polices the simulator's two time units. Virtual time is cycle
// counts (the engine clock, tick intervals, migration costs); the only
// wall-clock quantity allowed anywhere near results is informational
// nanosecond timing (internal/runtimeobs host spans). Functions, fields, and
// parameters declare their unit by name — ...Cycles, ...Nanos, ..._ns — and
// obs registrations declare it in the metric name. A cycles-named value may
// not meet a nanos-named value in arithmetic, comparison, assignment,
// argument passing, or a metric reader without an explicit conversion call
// (a *ToCycles/*ToNanos-style helper): under a sharded engine, where
// per-shard clocks merge constantly, a silent cycles/ns mix-up is exactly
// the bug class that compiles, runs, and quietly skews every figure.
var VtimeUnits = &ModuleAnalyzer{
	Name: "vtime-units",
	Doc:  "cycles-named and nanosecond-named values may not mix without an explicit conversion call",
	Run:  runVtimeUnits,
}

// unitOfName classifies what unit an identifier (or metric name) declares:
// "cycles", "ns", or "" for unitless. Ratio names (nsPerCycle,
// cyclesPerNs) declare no unit — they are conversion factors.
func unitOfName(name string) string {
	lower := strings.ToLower(name)
	if strings.Contains(lower, "per") {
		return ""
	}
	if strings.Contains(lower, "cycle") {
		return "cycles"
	}
	if strings.Contains(lower, "nano") {
		return "ns"
	}
	if lower == "ns" || strings.HasSuffix(name, "_ns") || strings.HasSuffix(name, "Ns") {
		return "ns"
	}
	return ""
}

// convAwareUnit classifies a function name, honoring the conversion-helper
// convention: for names containing "To" the declared unit is the target
// (NanosToCycles yields cycles), so conversion calls launder units by
// construction.
func convAwareUnit(name string) string {
	if i := strings.LastIndex(name, "To"); i >= 0 && i+2 < len(name) {
		return unitOfName(name[i+2:])
	}
	return unitOfName(name)
}

// exprUnit infers the unit an expression carries from the names in it.
func exprUnit(pkg *Package, e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return unitOfName(v.Name)
	case *ast.SelectorExpr:
		return unitOfName(v.Sel.Name)
	case *ast.IndexExpr:
		return exprUnit(pkg, v.X)
	case *ast.UnaryExpr:
		return exprUnit(pkg, v.X)
	case *ast.StarExpr:
		return exprUnit(pkg, v.X)
	case *ast.CallExpr:
		// Numeric conversions (uint64(x)) pass the operand's unit through.
		if t := pkg.Info.TypeOf(v.Fun); t != nil {
			if _, isSig := t.Underlying().(*types.Signature); !isSig && len(v.Args) == 1 {
				return exprUnit(pkg, v.Args[0])
			}
		}
		switch fun := ast.Unparen(v.Fun).(type) {
		case *ast.Ident:
			return convAwareUnit(fun.Name)
		case *ast.SelectorExpr:
			return convAwareUnit(fun.Sel.Name)
		}
		return ""
	case *ast.BinaryExpr:
		// Additive ops preserve a unit; multiplicative ops scale it away.
		if v.Op == token.ADD || v.Op == token.SUB {
			ux, uy := exprUnit(pkg, v.X), exprUnit(pkg, v.Y)
			switch {
			case ux == "":
				return uy
			case uy == "" || ux == uy:
				return ux
			}
		}
		return ""
	}
	return ""
}

// unitsConflict reports whether two inferred units disagree.
func unitsConflict(a, b string) bool {
	return a != "" && b != "" && a != b
}

// obsRegistrationFuncs are the Registry methods whose first argument names
// a metric column and whose reader closure supplies its values.
var obsRegistrationFuncs = map[string]bool{
	"CounterFunc": true,
	"GaugeFunc":   true,
}

func runVtimeUnits(mp *ModulePass) {
	for _, n := range mp.Mod.Graph.Nodes {
		body := n.Body()
		if body == nil {
			continue
		}
		checkVtimeUnits(mp, n, body)
	}
}

// checkVtimeUnits scans one function body for unit mixes.
func checkVtimeUnits(mp *ModulePass, n *Node, body *ast.BlockStmt) {
	pkg := n.Pkg
	inspectSkipNested(body, body, func(an ast.Node) {
		switch v := an.(type) {
		case *ast.BinaryExpr:
			switch v.Op {
			case token.ADD, token.SUB, token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				ux, uy := exprUnit(pkg, v.X), exprUnit(pkg, v.Y)
				if unitsConflict(ux, uy) {
					mp.Reportf(v.OpPos,
						"expression mixes %s and %s; convert explicitly (a NanosToCycles/CyclesToNanos-style call) so virtual-time units stay honest", ux, uy)
				}
			}
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return
			}
			for i, lhs := range v.Lhs {
				ul, ur := exprUnit(pkg, lhs), exprUnit(pkg, v.Rhs[i])
				if unitsConflict(ul, ur) {
					mp.Reportf(v.Pos(),
						"assigning a %s value to a %s-named target without an explicit conversion call", ur, ul)
				}
			}
		case *ast.ValueSpec:
			if len(v.Names) != len(v.Values) {
				return
			}
			for i, name := range v.Names {
				un, uv := unitOfName(name.Name), exprUnit(pkg, v.Values[i])
				if unitsConflict(un, uv) {
					mp.Reportf(name.Pos(),
						"declaring %s-named %s from a %s value without an explicit conversion call", un, name.Name, uv)
				}
			}
		case *ast.KeyValueExpr:
			if key, ok := v.Key.(*ast.Ident); ok {
				uk, uv := unitOfName(key.Name), exprUnit(pkg, v.Value)
				if unitsConflict(uk, uv) {
					mp.Reportf(v.Pos(),
						"field %s declares %s but is set from a %s value without an explicit conversion call", key.Name, uk, uv)
				}
			}
		case *ast.ReturnStmt:
			if n.Fn == nil || len(v.Results) != 1 {
				return
			}
			uf := convAwareUnit(n.Fn.Name())
			ur := exprUnit(pkg, v.Results[0])
			if unitsConflict(uf, ur) {
				mp.Reportf(v.Pos(),
					"%s declares %s by name but returns a %s value without an explicit conversion call", n.Fn.Name(), uf, ur)
			}
		case *ast.CallExpr:
			checkCallUnits(mp, pkg, v)
		}
	})
}

// checkCallUnits compares argument units against the callee's declared
// parameter names, and validates obs metric registrations: the unit in the
// registered column name must match what the reader closure returns.
func checkCallUnits(mp *ModulePass, pkg *Package, call *ast.CallExpr) {
	fn := staticCallee(pkg, call)
	if fn == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok {
		params := sig.Params()
		for i, arg := range call.Args {
			if i >= params.Len() || (sig.Variadic() && i == params.Len()-1) {
				break
			}
			up := unitOfName(params.At(i).Name())
			ua := exprUnit(pkg, arg)
			if unitsConflict(up, ua) {
				mp.Reportf(arg.Pos(),
					"argument carries %s but parameter %q of %s declares %s; convert explicitly", ua, params.At(i).Name(), fn.Name(), up)
			}
		}
	}
	if !obsRegistrationFuncs[fn.Name()] || fn.Pkg() == nil || fn.Pkg().Path() != obsPkgPath {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	declared := unitOfName(strings.Trim(lit.Value, `"`))
	reader, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit)
	if !ok || declared == "" {
		return
	}
	ast.Inspect(reader.Body, func(an ast.Node) bool {
		ret, ok := an.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		ur := exprUnit(pkg, ret.Results[0])
		if unitsConflict(declared, ur) {
			mp.Reportf(ret.Pos(),
				"obs metric %s declares %s but its reader returns a %s value; convert explicitly or rename the column", lit.Value, declared, ur)
		}
		return true
	})
}
