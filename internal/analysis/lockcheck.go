package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// LockCheck enforces lock discipline in the few concurrent paths (the
// sweep worker pool being the main one):
//
//   - no sync primitive (Mutex, RWMutex, WaitGroup, Once, Cond) may be
//     copied by value — not as a parameter, not as a result, not by
//     assignment from an existing variable, not by ranging over a slice of
//     lock-bearing values;
//   - every mu.Lock()/mu.RLock() must have a matching mu.Unlock()/
//     mu.RUnlock() (plain or deferred) on the same receiver expression in
//     the same function, so a lock can never leak out of the function that
//     took it.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "forbid by-value lock copies and unpaired Lock/Unlock",
	Run:  runLockCheck,
}

func runLockCheck(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				checkLockSignature(pass, v.Recv, v.Type)
				if v.Body != nil {
					checkLockPairing(pass, v.Name.Name, v.Body)
				}
			case *ast.FuncLit:
				checkLockSignature(pass, nil, v.Type)
			case *ast.AssignStmt:
				checkLockAssign(pass, v)
			case *ast.RangeStmt:
				checkLockRange(pass, v)
			}
			return true
		})
	}
}

// lockTypeName reports the sync primitive contained (by value) in t, or "".
func lockTypeName(t types.Type) string {
	return lockTypeNameRec(t, make(map[types.Type]bool))
}

func lockTypeNameRec(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond":
				return "sync." + obj.Name()
			}
		}
		return lockTypeNameRec(named.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if name := lockTypeNameRec(u.Field(i).Type(), seen); name != "" {
				return name
			}
		}
	case *types.Array:
		return lockTypeNameRec(u.Elem(), seen)
	}
	return ""
}

// checkLockSignature flags receivers, parameters, and results that move a
// lock by value.
func checkLockSignature(pass *Pass, recv *ast.FieldList, ft *ast.FuncType) {
	check := func(fl *ast.FieldList, kind string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := pass.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if name := lockTypeName(t); name != "" {
				pass.Reportf(field.Pos(), "%s copies %s by value; use a pointer", kind, name)
			}
		}
	}
	check(recv, "receiver")
	check(ft.Params, "parameter")
	check(ft.Results, "result")
}

// checkLockAssign flags assignments that copy a lock out of an existing
// variable. Fresh values (composite literals, function calls) are fine: the
// zero Mutex is valid and not yet shared.
func checkLockAssign(pass *Pass, assign *ast.AssignStmt) {
	for i, rhs := range assign.Rhs {
		if i >= len(assign.Lhs) {
			break
		}
		// `_ = x` evaluates without copying anywhere; skip it.
		if id, ok := assign.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		switch rhs.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		default:
			continue
		}
		t := pass.TypeOf(rhs)
		if t == nil {
			continue
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if name := lockTypeName(t); name != "" {
			pass.Reportf(assign.Pos(), "assignment copies %s by value; use a pointer", name)
		}
	}
}

// checkLockRange flags `for _, v := range s` where the element carries a
// lock by value.
func checkLockRange(pass *Pass, rs *ast.RangeStmt) {
	if rs.Value == nil {
		return
	}
	t := pass.TypeOf(rs.Value)
	if t == nil {
		return
	}
	if name := lockTypeName(t); name != "" {
		pass.Reportf(rs.Pos(), "range copies %s by value; iterate by index", name)
	}
}

// lockMethods maps an acquire method to its release counterpart.
var lockMethods = map[string]string{
	"Lock":  "Unlock",
	"RLock": "RUnlock",
}

// checkLockPairing verifies that every Lock/RLock on a sync primitive has a
// matching Unlock/RUnlock on the same receiver within fn's body.
func checkLockPairing(pass *Pass, fname string, body *ast.BlockStmt) {
	type acquire struct {
		pos     token.Pos
		method  string
		release string
	}
	acquires := make(map[string][]acquire) // receiver text -> acquires
	releases := make(map[string]map[string]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		if _, nested := n.(*ast.FuncLit); nested {
			// Worker goroutines pair their own locks; analyze the literal's
			// body independently so a defer in the closure does not satisfy
			// a Lock taken outside it.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		name := sel.Sel.Name
		release, isAcquire := lockMethods[name]
		isRelease := name == "Unlock" || name == "RUnlock"
		if !isAcquire && !isRelease {
			return true
		}
		if !isSyncReceiver(pass, sel) {
			return true
		}
		recv := exprString(pass.Fset, sel.X)
		if isAcquire {
			acquires[recv] = append(acquires[recv], acquire{call.Pos(), name, release})
			return true
		}
		if releases[recv] == nil {
			releases[recv] = make(map[string]bool)
		}
		releases[recv][name] = true
		return true
	})
	// Nested function literals pair independently.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkLockPairing(pass, fname+" (func literal)", lit.Body)
			return false
		}
		return true
	})

	for recv, acqs := range acquires {
		for _, a := range acqs {
			if !releases[recv][a.release] {
				pass.Reportf(a.pos, "%s.%s() in %s has no matching %s() in the same function; release the lock where it is taken (defer %s.%s())",
					recv, a.method, fname, a.release, recv, a.release)
			}
		}
	}
}

// isSyncReceiver reports whether the method receiver of sel is (or embeds) a
// sync primitive, so that unrelated Lock() methods are not policed. Without
// type information it assumes sync, keeping the rule active on partially
// checked packages.
func isSyncReceiver(pass *Pass, sel *ast.SelectorExpr) bool {
	t := pass.TypeOf(sel.X)
	if t == nil {
		return true
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return lockTypeName(t) != ""
}

// exprString renders an expression as source text, for matching receiver
// expressions between Lock and Unlock sites.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return fmt.Sprintf("%T", e)
	}
	return buf.String()
}
