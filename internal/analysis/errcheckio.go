package analysis

import (
	"go/ast"
	"go/types"
)

// ErrcheckIO forbids discarding I/O errors in the cmd/ tools and in
// internal/cli, which writes their files, where a full disk or closed pipe
// must surface as a non-zero exit instead of a silently truncated CSV or
// image:
//
//   - an error returned by Write/WriteString/Flush/Sync/Fprint* used as a
//     bare statement is flagged, unless the writer is os.Stdout/os.Stderr
//     (diagnostic output) or an in-memory buffer that cannot fail;
//   - Close() on a file opened for writing (os.Create/os.OpenFile) is
//     flagged when its error is discarded — including `defer f.Close()` —
//     because buffered data may only hit the disk at close time.
//
// Explicit discards (`_ = f.Close()`) remain visible in the source and are
// allowed.
var ErrcheckIO = &Analyzer{
	Name: "errcheck-io",
	Doc:  "forbid discarded write/flush/close errors in cmd/ tools and internal/cli",
	Run:  runErrcheckIO,
}

// writeMethods are methods whose error result must be checked when the
// receiver can fail.
var writeMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Flush":       true,
	"Sync":        true,
}

func runErrcheckIO(pass *Pass) {
	if !isCmdPkg(pass.Path) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var fd *ast.FuncDecl
			if v, ok := n.(*ast.FuncDecl); ok && v.Body != nil {
				fd = v
			} else {
				return true
			}
			writeHandles := collectWriteHandles(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var call *ast.CallExpr
				switch v := n.(type) {
				case *ast.ExprStmt:
					call, _ = v.X.(*ast.CallExpr)
				case *ast.DeferStmt:
					call = v.Call
				case *ast.GoStmt:
					call = v.Call
				}
				if call == nil {
					return true
				}
				checkDiscardedCall(pass, call, writeHandles)
				return true
			})
			return true
		})
	}
}

// collectWriteHandles finds the identifiers in body that hold files opened
// for writing via os.Create or os.OpenFile.
func collectWriteHandles(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok || pkgID.Name != "os" {
			return true
		}
		if sel.Sel.Name != "Create" && sel.Sel.Name != "OpenFile" {
			return true
		}
		if len(assign.Lhs) == 0 {
			return true
		}
		if id, ok := assign.Lhs[0].(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// checkDiscardedCall flags call when it discards an I/O error.
func checkDiscardedCall(pass *Pass, call *ast.CallExpr, writeHandles map[types.Object]bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name

	// fmt.Fprint* to anything but stdout/stderr or an in-memory buffer.
	if id, ok := sel.X.(*ast.Ident); ok && id.Name == "fmt" &&
		(name == "Fprintf" || name == "Fprintln" || name == "Fprint") {
		if len(call.Args) > 0 && writerCanFail(pass, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"error from fmt.%s is discarded; a failed write to this destination must surface (assign and check the error)", name)
		}
		return
	}

	if name == "Close" {
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil && writeHandles[obj] {
				pass.Reportf(call.Pos(),
					"error from %s.Close() is discarded; close errors on files opened for writing must be checked (buffered data may be flushed at close)", id.Name)
			}
		}
		return
	}

	if !writeMethods[name] {
		return
	}
	// Only flag methods that actually return an error (csv.Writer.Flush,
	// for example, returns nothing).
	if !callReturnsError(pass, call) {
		return
	}
	if !writerCanFail(pass, sel.X) {
		return
	}
	pass.Reportf(call.Pos(), "error from %s() is discarded; check it", name)
}

// writerCanFail reports whether writes to e can fail. os.Stdout/os.Stderr
// (best-effort diagnostics) and in-memory buffers are considered safe.
func writerCanFail(pass *Pass, e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "os" &&
			(sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr") {
			return false
		}
	}
	t := pass.TypeOf(e)
	if t == nil {
		return true
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() + "." + obj.Name() {
			case "bytes.Buffer", "strings.Builder":
				return false
			}
		}
	}
	return true
}

// callReturnsError reports whether the call's results include an error.
// Without type information it errs on the side of flagging.
func callReturnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return true
	}
	check := func(t types.Type) bool {
		named, ok := t.(*types.Named)
		return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if check(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return check(t)
}
