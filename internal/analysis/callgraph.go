package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the interprocedural rules
// traverse. Resolution is deliberately layered, cheapest first:
//
//  1. static calls — `pkg.F()`, `recv.M()` on a concrete receiver — become
//     one edge to the named function;
//  2. interface method calls resolve by class-hierarchy analysis: an edge
//     to every module type whose method set satisfies the interface;
//  3. function-value calls resolve one level deep, the same depth the
//     sweep-parallel rule uses for `go worker()`: the candidates are every
//     function ever bound to that variable, struct field, or parameter
//     anywhere in the module, and failing that, every address-taken
//     function with an identical signature;
//  4. what still cannot be resolved is recorded on the caller as a dynamic
//     call site. Rules must treat those conservatively (determinism-flow
//     reports them as taint) — an unresolved call is never silently dropped.
//
// Function literals are first-class nodes (named parent$1, parent$2, ...)
// so a closure handed across a package boundary keeps its own identity: the
// taint of `hook := func() int64 { return int64(time.Since(start)) }` belongs
// to the closure, not to whichever main() happened to build it.

// EdgeKind classifies how a call edge was resolved.
type EdgeKind int

const (
	// EdgeStatic is a direct call of a named function or concrete method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is an interface method call resolved to an
	// implementation by class-hierarchy analysis.
	EdgeInterface
	// EdgeFuncValue is a call through a function value, resolved through
	// the module-wide binding table or by signature matching.
	EdgeFuncValue
	// EdgeCallback marks a function value passed as a call argument: the
	// callee (possibly outside the module, e.g. sort.Slice) may invoke it,
	// so the caller conservatively gains an edge to it.
	EdgeCallback
)

// String names the edge kind for the -graph dump.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeFuncValue:
		return "funcvalue"
	case EdgeCallback:
		return "callback"
	}
	return "unknown"
}

// Edge is one resolved call from a node.
type Edge struct {
	Callee *Node
	Pos    token.Pos // call site
	Kind   EdgeKind
}

// ExtCall is a call to a function outside the module (the standard
// library). Bodies outside the module are opaque, so rules judge these by
// (package path, name) — e.g. determinism-flow's impure-function table.
type ExtCall struct {
	PkgPath string
	Name    string
	Pos     token.Pos
	// Method distinguishes methods from package-level functions: rand.Intn
	// (the shared global stream) is impure, (*rand.Rand).Intn on a seeded
	// instance is not.
	Method bool
}

// Node is one function in the call graph: a declared function or method, or
// a function literal.
type Node struct {
	// Fn is the declared function's object; nil for literals.
	Fn *types.Func
	// Lit is the literal; nil for declarations.
	Lit *ast.FuncLit
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Pkg is the package the function's body lives in.
	Pkg *Package
	// File is the file the body lives in.
	File *ast.File
	// Name is the qualified display name: "engine.Run",
	// "(*policy.SPCD).Tick", "sweep.runOne$1".
	Name string
	// Edges are the resolved calls out of this node, in source order.
	Edges []Edge
	// Dynamic records call sites that no resolution layer could bind to a
	// callee. Rules treat them conservatively.
	Dynamic []token.Pos
	// Ext records calls to functions outside the module.
	Ext []ExtCall
	// EntryMark is set by a `//lint:entrypoint` comment on the declaration.
	EntryMark bool

	index int // creation order, for deterministic candidate sets
}

// Body returns the node's function body (nil for bodyless declarations).
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Name.Pos()
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	// Nodes lists every function and literal in deterministic order
	// (packages by import path, files and declarations in source order).
	Nodes []*Node

	byFn  map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
}

// NodeOf returns the node of a declared function, or nil.
func (g *CallGraph) NodeOf(fn *types.Func) *Node { return g.byFn[fn] }

// NodeOfLit returns the node of a function literal, or nil.
func (g *CallGraph) NodeOfLit(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// NodeNamed returns the first node with the given display name, or nil.
// Intended for tests and debugging.
func (g *CallGraph) NodeNamed(name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// shortPkg returns the last element of an import path.
func shortPkg(path string) string {
	return path[strings.LastIndex(path, "/")+1:]
}

// builder carries the intermediate state of one call-graph construction.
type builder struct {
	graph *CallGraph
	pkgs  []*Package

	// bindings maps a variable, struct field, or parameter object to every
	// function node ever bound to it anywhere in the module. This is the
	// one-level function-value resolution table.
	bindings map[types.Object][]*Node
	// addressTaken marks nodes whose function is used as a value somewhere,
	// making them candidates for signature-based resolution.
	addressTaken map[*Node]bool
	// namedTypes lists every named (non-alias) type declared in the module,
	// for class-hierarchy analysis of interface calls.
	namedTypes []*types.Named
}

// buildCallGraph constructs the call graph over pkgs. pkgs must share one
// loader (one FileSet, one importer) so type objects are identical across
// packages.
func buildCallGraph(pkgs []*Package) *CallGraph {
	b := &builder{
		graph: &CallGraph{
			byFn:  make(map[*types.Func]*Node),
			byLit: make(map[*ast.FuncLit]*Node),
		},
		pkgs:         pkgs,
		bindings:     make(map[types.Object][]*Node),
		addressTaken: make(map[*Node]bool),
	}
	b.collectNodes()
	b.collectNamedTypes()
	b.collectBindings()
	for _, n := range b.graph.Nodes {
		b.resolveCalls(n)
	}
	return b.graph
}

// collectNodes creates a node per function declaration and per function
// literal, in deterministic order.
func (b *builder) collectNodes() {
	for _, pkg := range b.pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					b.addDecl(pkg, file, d)
				case *ast.GenDecl:
					// Package-level `var f = func() {...}` initializers.
					name := shortPkg(pkg.Path) + ".init"
					b.addLits(pkg, file, name, d, nil)
				}
			}
		}
	}
}

// addDecl registers a function declaration and the literals nested in it.
func (b *builder) addDecl(pkg *Package, file *ast.File, d *ast.FuncDecl) {
	var fn *types.Func
	if obj := pkg.Info.Defs[d.Name]; obj != nil {
		fn, _ = obj.(*types.Func)
	}
	n := &Node{
		Fn:        fn,
		Decl:      d,
		Pkg:       pkg,
		File:      file,
		Name:      declName(pkg, fn, d),
		EntryMark: hasEntrypointMark(d.Doc),
		index:     len(b.graph.Nodes),
	}
	b.graph.Nodes = append(b.graph.Nodes, n)
	if fn != nil {
		b.graph.byFn[fn] = n
	}
	if d.Body != nil {
		b.addLits(pkg, file, n.Name, d.Body, d.Body)
	}
}

// addLits registers every function literal under root (skipping literals
// nested inside other literals, which recurse) as nodes named parent$1,
// parent$2, ... in source order.
func (b *builder) addLits(pkg *Package, file *ast.File, parent string, root ast.Node, rootBody *ast.BlockStmt) {
	count := 0
	inspectSkipNested(root, rootBody, func(n ast.Node) {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return
		}
		count++
		node := &Node{
			Lit:   lit,
			Pkg:   pkg,
			File:  file,
			Name:  fmt.Sprintf("%s$%d", parent, count),
			index: len(b.graph.Nodes),
		}
		b.graph.Nodes = append(b.graph.Nodes, node)
		b.graph.byLit[lit] = node
		b.addLits(pkg, file, node.Name, lit.Body, lit.Body)
	})
}

// inspectSkipNested walks root calling fn on every node, but does not
// descend into function literals other than the one whose body is rootBody
// (nil to stop at every literal). It lets a node's body be scanned without
// absorbing its nested closures, which are nodes of their own.
func inspectSkipNested(root ast.Node, rootBody *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != rootBody {
			fn(n) // visible as a value, but do not descend
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// declName renders the qualified display name of a declaration.
func declName(pkg *Package, fn *types.Func, d *ast.FuncDecl) string {
	short := shortPkg(pkg.Path)
	if fn != nil {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			qual := func(p *types.Package) string { return shortPkg(p.Path()) }
			return fmt.Sprintf("(%s).%s", types.TypeString(recv.Type(), qual), fn.Name())
		}
	}
	return short + "." + d.Name.Name
}

// hasEntrypointMark reports whether a doc comment carries the
// //lint:entrypoint marker, which lets any function opt into being treated
// as a simulation entry point by the flow rules.
func hasEntrypointMark(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//lint:entrypoint") {
			return true
		}
	}
	return false
}

// collectNamedTypes gathers every named type declared in the module.
func (b *builder) collectNamedTypes() {
	for _, pkg := range b.pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				b.namedTypes = append(b.namedTypes, named)
			}
		}
	}
}

// funcCandidates resolves an expression used as a function value to the
// nodes it can denote: a function name, a method value, or a literal.
func (b *builder) funcCandidates(pkg *Package, e ast.Expr) []*Node {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[v].(*types.Func); ok {
			if n := b.graph.byFn[fn]; n != nil {
				return []*Node{n}
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[v.Sel].(*types.Func); ok {
			if n := b.graph.byFn[fn]; n != nil {
				return []*Node{n}
			}
		}
	case *ast.FuncLit:
		if n := b.graph.byLit[v]; n != nil {
			return []*Node{n}
		}
	}
	return nil
}

// bind records that obj (a variable, field, or parameter) can hold the
// functions denoted by expr.
func (b *builder) bind(pkg *Package, obj types.Object, expr ast.Expr) {
	if obj == nil {
		return
	}
	cands := b.funcCandidates(pkg, expr)
	if len(cands) == 0 {
		return
	}
	b.bindings[obj] = append(b.bindings[obj], cands...)
	for _, c := range cands {
		b.addressTaken[c] = true
	}
}

// collectBindings walks every file once, recording which functions flow
// into which variables, struct fields, and parameters. This is the table
// one-level function-value resolution reads.
func (b *builder) collectBindings() {
	for _, pkg := range b.pkgs {
		for _, file := range pkg.Files {
			p, f := pkg, file
			ast.Inspect(f, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.AssignStmt:
					if len(v.Lhs) != len(v.Rhs) {
						return true
					}
					for i, lhs := range v.Lhs {
						b.bind(p, assignTarget(p, lhs), v.Rhs[i])
					}
				case *ast.ValueSpec:
					if len(v.Names) != len(v.Values) {
						return true
					}
					for i, name := range v.Names {
						b.bind(p, p.Info.Defs[name], v.Values[i])
					}
				case *ast.CompositeLit:
					b.bindCompositeLit(p, v)
				case *ast.CallExpr:
					b.bindCallArgs(p, v)
				case *ast.ReturnStmt:
					// Functions returned as values escape to callers the
					// binding table cannot name; mark them address-taken so
					// the signature-identity fallback can still find them.
					for _, res := range v.Results {
						for _, c := range b.funcCandidates(p, res) {
							b.addressTaken[c] = true
						}
					}
				}
				return true
			})
		}
	}
	// Deterministic, deduplicated candidate sets.
	for obj, cands := range b.bindings {
		b.bindings[obj] = dedupeNodes(cands)
	}
}

// assignTarget resolves an assignment's left-hand side to the object being
// written: a plain variable or a struct field reached by selector.
func assignTarget(pkg *Package, lhs ast.Expr) types.Object {
	switch t := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := pkg.Info.Defs[t]; obj != nil {
			return obj
		}
		return pkg.Info.Uses[t]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[t]; ok {
			return sel.Obj()
		}
		return pkg.Info.Uses[t.Sel]
	}
	return nil
}

// bindCompositeLit records function values stored into struct fields by a
// composite literal, keyed or positional.
func (b *builder) bindCompositeLit(pkg *Package, cl *ast.CompositeLit) {
	var st *types.Struct
	if t := pkg.Info.TypeOf(cl); t != nil {
		st, _ = t.Underlying().(*types.Struct)
	}
	for i, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				if obj := pkg.Info.Uses[key]; obj != nil {
					b.bind(pkg, obj, kv.Value)
				}
			}
			continue
		}
		if st != nil && i < st.NumFields() {
			b.bind(pkg, st.Field(i), elt)
		}
	}
}

// bindCallArgs records function values passed as arguments into the
// callee's parameter objects, when the callee is a single known function.
func (b *builder) bindCallArgs(pkg *Package, call *ast.CallExpr) {
	fn := staticCallee(pkg, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			break
		}
		if sig.Variadic() && i == params.Len()-1 {
			break // variadic func params are not worth the ambiguity
		}
		b.bind(pkg, params.At(i), arg)
	}
}

// staticCallee returns the *types.Func a call expression statically names,
// or nil for dynamic calls, conversions, and builtins.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// dedupeNodes sorts candidates by creation index and removes duplicates.
func dedupeNodes(nodes []*Node) []*Node {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].index < nodes[j].index })
	out := nodes[:0]
	var prev *Node
	for _, n := range nodes {
		if n != prev {
			out = append(out, n)
		}
		prev = n
	}
	return out
}

// resolveCalls walks one node's body and resolves every call expression
// into edges, external calls, or dynamic sites.
func (b *builder) resolveCalls(n *Node) {
	body := n.Body()
	if body == nil {
		return
	}
	inspectSkipNested(body, body, func(an ast.Node) {
		call, ok := an.(*ast.CallExpr)
		if !ok {
			return
		}
		b.resolveCall(n, call)
	})
}

// addEdge appends an edge, deduplicating identical (callee, site) pairs
// (the callback heuristic can rediscover a binding-resolved edge).
func addEdge(n *Node, callee *Node, pos token.Pos, kind EdgeKind) {
	for _, e := range n.Edges {
		if e.Callee == callee && e.Pos == pos {
			return
		}
	}
	n.Edges = append(n.Edges, Edge{Callee: callee, Pos: pos, Kind: kind})
}

// resolveCall resolves a single call expression from node n.
func (b *builder) resolveCall(n *Node, call *ast.CallExpr) {
	pkg := n.Pkg
	b.resolveCallbackArgs(n, call)

	fun := ast.Unparen(call.Fun)
	switch v := fun.(type) {
	case *ast.FuncLit:
		if lit := b.graph.byLit[v]; lit != nil {
			addEdge(n, lit, call.Pos(), EdgeStatic)
		}
		return
	case *ast.Ident:
		switch obj := pkg.Info.Uses[v].(type) {
		case *types.Func:
			b.addFuncEdge(n, obj, call.Pos(), EdgeStatic)
			return
		case *types.Var:
			b.resolveFuncValueCall(n, obj, call)
			return
		case *types.Builtin, *types.TypeName, *types.Nil:
			return // builtin call or conversion
		}
		if pkg.Info.Uses[v] == nil && pkg.Info.Defs[v] == nil {
			return // unresolved identifier (type errors); nothing to do
		}
	case *ast.SelectorExpr:
		switch obj := pkg.Info.Uses[v.Sel].(type) {
		case *types.Func:
			// Interface method call? Resolve by CHA over module types.
			if sel, ok := pkg.Info.Selections[v]; ok {
				if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
					b.resolveInterfaceCall(n, sel.Recv(), obj.Name(), call)
					return
				}
			}
			b.addFuncEdge(n, obj, call.Pos(), EdgeStatic)
			return
		case *types.Var:
			// Call through a func-typed field or package variable.
			var target types.Object = obj
			if sel, ok := pkg.Info.Selections[v]; ok {
				target = sel.Obj()
			}
			b.resolveFuncValueCall(n, target, call)
			return
		case *types.TypeName:
			return // conversion
		}
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Call of an indexed expression (func table) — dynamic unless the
		// element resolves (it will not, with this loader); conservative.
		if isFuncCall(pkg, call) {
			n.Dynamic = append(n.Dynamic, call.Pos())
		}
		return
	case *ast.ArrayType, *ast.MapType, *ast.StarExpr, *ast.ChanType, *ast.InterfaceType, *ast.StructType, *ast.FuncType:
		return // conversion to a composite type
	}
	// Anything else that type-checks as a call of a function value is a
	// dynamic call we could not resolve.
	if isFuncCall(pkg, call) {
		n.Dynamic = append(n.Dynamic, call.Pos())
	}
}

// isFuncCall reports whether call invokes a value of function type (as
// opposed to a conversion whose operand we cannot classify).
func isFuncCall(pkg *Package, call *ast.CallExpr) bool {
	t := pkg.Info.TypeOf(call.Fun)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// addFuncEdge adds an edge to a named function: a graph edge when the
// function is defined in the module, an ExtCall record otherwise.
func (b *builder) addFuncEdge(n *Node, fn *types.Func, pos token.Pos, kind EdgeKind) {
	if callee := b.graph.byFn[fn]; callee != nil {
		addEdge(n, callee, pos, kind)
		return
	}
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	method := false
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		method = true
	}
	n.Ext = append(n.Ext, ExtCall{PkgPath: path, Name: fn.Name(), Pos: pos, Method: method})
}

// resolveInterfaceCall adds an edge to every module type implementing the
// interface method (class-hierarchy analysis). When the module defines no
// implementation the call is recorded as dynamic: it may dispatch to types
// we cannot see, and rules must stay conservative about it.
func (b *builder) resolveInterfaceCall(n *Node, recv types.Type, method string, call *ast.CallExpr) {
	iface, _ := recv.Underlying().(*types.Interface)
	if iface == nil {
		n.Dynamic = append(n.Dynamic, call.Pos())
		return
	}
	var resolved bool
	for _, named := range b.namedTypes {
		if types.IsInterface(named) {
			continue
		}
		impl := types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
		if !impl {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			if callee := b.graph.byFn[fn]; callee != nil {
				addEdge(n, callee, call.Pos(), EdgeInterface)
				resolved = true
			}
		}
	}
	if !resolved {
		n.Dynamic = append(n.Dynamic, call.Pos())
	}
}

// resolveFuncValueCall resolves a call through a function-valued variable,
// field, or parameter: first through the module-wide binding table, then by
// signature matching over address-taken functions, else conservatively
// dynamic.
func (b *builder) resolveFuncValueCall(n *Node, obj types.Object, call *ast.CallExpr) {
	if cands := b.bindings[obj]; len(cands) > 0 {
		for _, c := range cands {
			addEdge(n, c, call.Pos(), EdgeFuncValue)
		}
		return
	}
	if obj != nil {
		if sig, ok := obj.Type().Underlying().(*types.Signature); ok {
			var matched bool
			for _, cand := range b.graph.Nodes {
				if !b.addressTaken[cand] {
					continue
				}
				if csig := b.nodeSignature(cand); csig != nil && types.Identical(sig, csig) {
					addEdge(n, cand, call.Pos(), EdgeFuncValue)
					matched = true
				}
			}
			if matched {
				return
			}
		}
	}
	n.Dynamic = append(n.Dynamic, call.Pos())
}

// nodeSignature returns the node's function signature, or nil.
func (b *builder) nodeSignature(n *Node) *types.Signature {
	if n.Fn != nil {
		sig, _ := n.Fn.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil {
		if t := n.Pkg.Info.TypeOf(n.Lit); t != nil {
			sig, _ := t.Underlying().(*types.Signature)
			return sig
		}
	}
	return nil
}

// resolveCallbackArgs adds conservative edges for function values passed as
// call arguments: the callee (often outside the module — sort.Slice, a
// goroutine spawner, an injected hook) may invoke them. Interface-valued
// arguments to external calls likewise edge to the argument type's
// interface methods, covering the sort.Sort(data) pattern where the
// standard library calls back into module code.
func (b *builder) resolveCallbackArgs(n *Node, call *ast.CallExpr) {
	pkg := n.Pkg
	for _, arg := range call.Args {
		for _, c := range b.funcCandidates(pkg, arg) {
			addEdge(n, c, arg.Pos(), EdgeCallback)
			b.addressTaken[c] = true
		}
	}
	fn := staticCallee(pkg, call)
	if fn == nil || b.graph.byFn[fn] != nil {
		return // module callees get these edges when their own body calls
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			break
		}
		iface, ok := params.At(i).Type().Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			continue
		}
		argType := pkg.Info.TypeOf(arg)
		if argType == nil {
			continue
		}
		for j := 0; j < iface.NumMethods(); j++ {
			m := iface.Method(j)
			obj, _, _ := types.LookupFieldOrMethod(argType, true, m.Pkg(), m.Name())
			if mfn, ok := obj.(*types.Func); ok {
				if callee := b.graph.byFn[mfn]; callee != nil {
					addEdge(n, callee, arg.Pos(), EdgeCallback)
				}
			}
		}
	}
}

// Dump writes the call graph in a stable text form: one block per node with
// its resolved edges, external calls, and unresolved dynamic call sites.
// This is the `spcdlint -graph` debug view.
func (g *CallGraph) Dump(w io.Writer, m *Module) {
	for _, n := range g.Nodes {
		if n.Body() == nil {
			continue
		}
		mark := ""
		if n.EntryMark {
			mark = " [entrypoint]"
		}
		fmt.Fprintf(w, "%s (%s)%s\n", n.Name, m.Rel(n.Pos()), mark)
		for _, e := range n.Edges {
			fmt.Fprintf(w, "  -> %s [%s] at %s\n", e.Callee.Name, e.Kind, m.Rel(e.Pos))
		}
		for _, x := range n.Ext {
			fmt.Fprintf(w, "  -> %s.%s [external] at %s\n", x.PkgPath, x.Name, m.Rel(x.Pos))
		}
		for _, pos := range n.Dynamic {
			fmt.Fprintf(w, "  ?? dynamic call at %s (unresolved; conservative taint)\n", m.Rel(pos))
		}
	}
}
