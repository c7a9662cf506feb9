// Package pinescape polices the lifetime of pinned page data. A
// `Page.Data()` slice aliases the pager's cache frame and is valid only
// while the page is pinned. Once the pin drops, the frame can be evicted
// and refilled with a different page (or, under the steal policy, written
// back and reused mid-transaction), so a retained slice is silent
// cross-page corruption: reads see another page's bytes, writes corrupt a
// page the WAL never logged. The same applies to a retained `*pager.Page`.
//
// A pin is a scope: `pager.With(no, fn)` pins the page for exactly the
// call of fn. The analyzer holds code outside the pager to that shape.
//
//   - Call ban: a call to the pager's `Acquire` or `Release` outside
//     package pager is reported, so a pin whose end is not a scope cannot
//     be written. One package is exempt, see exemptPkg.
//   - Closure source: the `*pager.Page` parameter of a function literal —
//     the closure handed to With or WithZero — is a page pinned inside the
//     enclosing function, whose pin ends inside it too.
//
// The analysis is a per-function taint closure with interprocedural
// facts. Taint sources are those closure pages and their `Data()`
// results; taint propagates through assignments (including assignments
// from inside a closure to the enclosing function's locals),
// slicing/indexing, composite literals, address-taking, and calls to
// functions whose exported fact says "returns a value derived from
// parameter i" (the receiver is parameter 0). Conversions that copy
// (`string(b)`, `append`, `copy`) stop taint.
//
// Reported, for taint derived from a page pinned in this function:
//
//   - a store to a heap location — a field (receivers included), a
//     global, or through a pointer/map the function does not own;
//   - a send to a channel, or capture by a `go` statement's closure:
//     the receiving goroutine's lifetime is unknowable here;
//   - a `return` of taint, the page itself included: the pin provably
//     ends inside this function, so the caller receives a dangling alias;
//   - passing taint to a callee whose fact says it retains that
//     parameter.
//
// For taint derived from parameters, the same events export a
// per-function fact ({retains, returns} × parameter) instead of a
// diagnostic; callers are then checked against those facts, so a
// helper that stores its slice argument makes every pinned call site a
// finding — the interprocedural half of the rule.
//
// Known limits: closures other than `go` closures are not treated as
// escapes (a closure stored away while capturing page data is out of
// reach for an intraprocedural pass), calls through interfaces and
// function values have no facts, and struct-typed method receivers lose
// taint when methods are invoked on a copy.
package pinescape

import (
	"bytes"
	"encoding/gob"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the pinescape analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "pinescape",
	Doc:       "values derived from pinned page data must not outlive the pin",
	Run:       run,
	UsesFacts: true,
}

// funcFact is the exported per-function summary. Parameter indices
// count the receiver as 0 and ordinary parameters from 1.
type funcFact struct {
	Retains []int // params stored to the heap / goroutine-captured
	Returns []int // params a result may alias
}

type factFile struct {
	// Funcs is cumulative (includes everything imported), keyed like
	// lockorder: "pkgpath.Name" or "pkgpath.(Type).Name".
	Funcs map[string]funcFact
}

func funcKey(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil {
			if named := analysis.NamedOf(recv.Type()); named != nil {
				name = "(" + named.Obj().Name() + ")." + name
			}
		}
	}
	return f.Pkg().Path() + "." + name
}

func run(pass *analysis.Pass) error {
	if analysis.LastElem(pass.Pkg.Path()) == "pager" {
		// The pager is the trusted implementation of the pin machinery:
		// its methods are taint primitives (Data is the source;
		// With/MarkDirty neither retain nor return caller data), so
		// analyzing its internals would only export noise facts — e.g.
		// Release filing the page into the LRU would read as "Release
		// retains its argument" at every call site.
		if pass.ExportFact != nil {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(factFile{Funcs: map[string]funcFact{}}); err != nil {
				return err
			}
			pass.ExportFact(buf.Bytes())
		}
		return nil
	}
	if pass.Pkg.Path() != exemptPkg {
		for _, file := range pass.Files {
			banPinCalls(pass, file)
		}
	}
	global := make(map[string]funcFact)
	for _, blob := range pass.DepFacts {
		var ff factFile
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&ff); err != nil {
			continue
		}
		for k, f := range ff.Funcs {
			global[k] = mergeFact(global[k], f)
		}
	}

	type fnScope struct {
		key  string
		decl *ast.FuncDecl
	}
	var fns []fnScope
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset.Position(file.Pos()).Filename) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, fnScope{key: funcKey(obj), decl: fd})
		}
	}

	// Fixpoint over the package: facts feed call-site taint, which
	// feeds facts (a wrapper around a retaining helper retains too).
	for {
		changed := false
		for _, f := range fns {
			fact := analyzeFn(pass, f.decl, global, false)
			merged := mergeFact(global[f.key], fact)
			if len(merged.Retains) != len(global[f.key].Retains) || len(merged.Returns) != len(global[f.key].Returns) {
				global[f.key] = merged
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Reporting pass, against the stable fact table.
	for _, f := range fns {
		analyzeFn(pass, f.decl, global, true)
	}

	if pass.ExportFact != nil {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(factFile{Funcs: global}); err != nil {
			return err
		}
		pass.ExportFact(buf.Bytes())
	}
	return nil
}

// exemptPkg may still call Acquire and Release: its probe times one bare
// cache hit. ROADMAP item 1 removes both the exemption and the exported
// pair.
const exemptPkg = "repro/benchmark"

// banPinCalls reports every call to the pager's Acquire or Release in
// file: outside package pager a page is pinned only by With or WithZero.
func banPinCalls(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := analysis.StaticCallee(pass.TypesInfo, call); f != nil && (f.Name() == "Acquire" || f.Name() == "Release") &&
			f.Pkg() != nil && analysis.LastElem(f.Pkg().Path()) == "pager" {
			pass.Reportf(call.Pos(), "call to pager %s outside package pager: pin the page with With, whose scope ends the pin", f.Name())
		}
		return true
	})
}

func mergeFact(a, b funcFact) funcFact {
	return funcFact{Retains: mergeInts(a.Retains, b.Retains), Returns: mergeInts(a.Returns, b.Returns)}
}

func mergeInts(a, b []int) []int {
	set := make(map[int]bool)
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		set[x] = true
	}
	out := make([]int, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

func hasIdx(xs []int, i int) bool {
	for _, x := range xs {
		if x == i {
			return true
		}
	}
	return false
}

// taint is the origin set of one value: which locally pinned pages
// and/or which parameters it may alias.
type taint struct {
	pins   map[types.Object]bool // source pages pinned in this function
	params map[int]bool          // parameter indices (receiver = 0)
}

func (t *taint) empty() bool { return t == nil || (len(t.pins) == 0 && len(t.params) == 0) }

func newTaint() *taint {
	return &taint{pins: map[types.Object]bool{}, params: map[int]bool{}}
}

func (t *taint) addAll(o *taint) bool {
	if o == nil {
		return false
	}
	changed := false
	for k := range o.pins {
		if !t.pins[k] {
			t.pins[k] = true
			changed = true
		}
	}
	for k := range o.params {
		if !t.params[k] {
			t.params[k] = true
			changed = true
		}
	}
	return changed
}

// fnAnalysis carries one function's taint state.
type fnAnalysis struct {
	pass   *analysis.Pass
	global map[string]funcFact
	report bool
	params map[types.Object]int // param/receiver object -> index
	vars   map[types.Object]*taint
	pinned map[types.Object]bool // closure pages, pinned and released in this body
	fact   funcFact
}

// analyzeFn runs the taint closure over one function. With report set
// it emits diagnostics; it always returns the function's fact.
func analyzeFn(pass *analysis.Pass, fd *ast.FuncDecl, global map[string]funcFact, report bool) funcFact {
	a := &fnAnalysis{
		pass:   pass,
		global: global,
		report: report,
		params: map[types.Object]int{},
		vars:   map[types.Object]*taint{},
		pinned: map[types.Object]bool{},
	}
	idx := 1
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, n := range f.Names {
				if obj := pass.TypesInfo.Defs[n]; obj != nil {
					a.params[obj] = 0
				}
			}
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, n := range f.Names {
				if obj := pass.TypesInfo.Defs[n]; obj != nil {
					a.params[obj] = idx
				}
				idx++
			}
			if len(f.Names) == 0 {
				idx++
			}
		}
	}

	// Collect the closure pages first: a function literal's *pager.Page
	// parameter is the page With pinned for the literal's call, and the
	// pin ends before With returns, inside this function. Only such a
	// page is a violation source — the function's own *Page parameter
	// is the CALLER's pin, policed there via facts.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			for _, f := range lit.Type.Params.List {
				for _, id := range f.Names {
					if obj := pass.TypesInfo.Defs[id]; obj != nil && isPagePtr(obj.Type()) {
						a.pinned[obj] = true
					}
				}
			}
		}
		return true
	})

	// Taint fixpoint over assignments (flow-insensitive).
	for {
		changed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
				// Multi-value: taint every LHS from the one call.
				t := a.exprTaint(as.Rhs[0])
				for _, lhs := range as.Lhs {
					if a.bindLocal(lhs, t) {
						changed = true
					}
				}
				return true
			}
			for i, lhs := range as.Lhs {
				if i < len(as.Rhs) {
					if a.bindLocal(lhs, a.exprTaint(as.Rhs[i])) {
						changed = true
					}
				}
			}
			return true
		})
		// Range over tainted values: `for i, b := range tainted`.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || rs.Value == nil {
				return true
			}
			t := a.exprTaint(rs.X)
			if t.empty() {
				return true
			}
			// Only reference-typed element values carry the alias.
			if tv, ok := pass.TypesInfo.Types[rs.Value]; ok && isRefType(tv.Type) {
				if a.bindLocal(rs.Value, t) {
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	// Violation / fact sweep.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				t := a.exprTaint(rhs)
				if t.empty() || !a.isRefExpr(rhs) {
					continue
				}
				if a.isHeapLHS(lhs) {
					a.flag(n.Pos(), t, "pinned page data stored to %s outlives the pin", describeLHS(lhs))
				}
			}
		case *ast.SendStmt:
			if t := a.exprTaint(n.Value); !t.empty() && a.isRefExpr(n.Value) {
				a.flag(n.Pos(), t, "pinned page data sent to a channel escapes the pin scope")
			}
		case *ast.GoStmt:
			a.checkGoCapture(n)
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				t := a.exprTaint(r)
				if t.empty() || !a.isRefExpr(r) {
					continue
				}
				for p := range t.pins {
					a.reportf(n.Pos(), "returns data derived from page %s whose pin ends in this function: the alias dangles once the frame is evicted", p.Name())
				}
				for idx := range t.params {
					a.fact.Returns = mergeInts(a.fact.Returns, []int{idx})
				}
			}
		case *ast.CallExpr:
			a.checkCallArgs(n)
		}
		return true
	})
	return a.fact
}

// bindLocal merges taint into the object bound by lhs, if lhs is a
// plain local identifier. Returns whether anything changed.
func (a *fnAnalysis) bindLocal(lhs ast.Expr, t *taint) bool {
	if t.empty() {
		return false
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := a.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = a.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return false
	}
	if _, isParam := a.params[obj]; isParam {
		// Rebinding a parameter name locally: fold into its taint.
	}
	cur := a.vars[obj]
	if cur == nil {
		cur = newTaint()
		a.vars[obj] = cur
	}
	return cur.addAll(t)
}

// exprTaint computes the origin set of an expression.
func (a *fnAnalysis) exprTaint(e ast.Expr) *taint {
	switch e := e.(type) {
	case *ast.Ident:
		t := newTaint()
		obj := a.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = a.pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return t
		}
		if a.pinned[obj] {
			// A locally pinned page taints by itself (storing the page
			// is as bad as storing its data).
			t.pins[obj] = true
		}
		if idx, ok := a.params[obj]; ok {
			t.params[idx] = true
		}
		if vt := a.vars[obj]; vt != nil {
			t.addAll(vt)
		}
		return t
	case *ast.ParenExpr:
		return a.exprTaint(e.X)
	case *ast.SliceExpr:
		return a.exprTaint(e.X)
	case *ast.IndexExpr:
		// b[i] of a tainted [][]byte etc. stays tainted only for
		// reference element types; x[i] of []byte yields a byte (copy).
		t := a.exprTaint(e.X)
		if tv, ok := a.pass.TypesInfo.Types[e]; ok && !isRefType(tv.Type) {
			return newTaint()
		}
		return t
	case *ast.StarExpr:
		return a.exprTaint(e.X)
	case *ast.UnaryExpr:
		return a.exprTaint(e.X)
	case *ast.SelectorExpr:
		// Field read of a tainted struct value stays tainted; method
		// values are handled at the call.
		if sel, ok := a.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			t := a.exprTaint(e.X)
			if tv, ok := a.pass.TypesInfo.Types[e]; ok && !isRefType(tv.Type) {
				return newTaint()
			}
			return t
		}
		return newTaint()
	case *ast.CompositeLit:
		t := newTaint()
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t.addAll(a.exprTaint(el))
		}
		return t
	case *ast.CallExpr:
		return a.callTaint(e)
	}
	return newTaint()
}

// callTaint resolves the taint of a call result: Data() is a source;
// otherwise fact-announced "returns param" flows tainted args through.
func (a *fnAnalysis) callTaint(call *ast.CallExpr) *taint {
	t := newTaint()
	// Conversions copy for string; []byte(x) of a string copies too.
	if tv, ok := a.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return t
	}
	if fun, ok := call.Fun.(*ast.Ident); ok {
		switch fun.Name {
		case "copy", "len", "cap", "min", "max":
			return t
		case "append":
			// append copies ELEMENTS: appending bytes (or b...) into a
			// []byte duplicates them, but appending a []byte value into
			// a [][]byte stores the alias itself. The result carries
			// the destination's taint plus that of any reference-typed
			// appended element.
			if len(call.Args) == 0 {
				return t
			}
			t.addAll(a.exprTaint(call.Args[0]))
			for _, arg := range call.Args[1:] {
				et := a.elemTypeOf(arg, call.Ellipsis.IsValid())
				if et != nil && isRefType(et) {
					t.addAll(a.exprTaint(arg))
				}
			}
			return t
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Data" && len(call.Args) == 0 {
		if f, ok := a.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && f.Pkg() != nil &&
			analysis.LastElem(f.Pkg().Path()) == "pager" {
			return a.exprTaint(sel.X) // the slice carries the page's origin
		}
	}
	callee := analysis.StaticCallee(a.pass.TypesInfo, call)
	if callee == nil {
		return t
	}
	fact, ok := a.global[funcKey(callee)]
	if !ok {
		return t
	}
	for _, idx := range fact.Returns {
		if arg := a.argAt(call, idx); arg != nil {
			t.addAll(a.exprTaint(arg))
		}
	}
	return t
}

// argAt maps a fact parameter index (receiver 0, params 1..) to the
// call-site expression.
func (a *fnAnalysis) argAt(call *ast.CallExpr, idx int) ast.Expr {
	if idx == 0 {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	if idx-1 < len(call.Args) {
		return call.Args[idx-1]
	}
	return nil
}

// checkCallArgs flags tainted arguments passed to callees that retain
// them.
func (a *fnAnalysis) checkCallArgs(call *ast.CallExpr) {
	callee := analysis.StaticCallee(a.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	fact, ok := a.global[funcKey(callee)]
	if !ok || len(fact.Retains) == 0 {
		return
	}
	for _, idx := range fact.Retains {
		arg := a.argAt(call, idx)
		if arg == nil {
			continue
		}
		t := a.exprTaint(arg)
		if t.empty() {
			continue
		}
		a.flag(call.Pos(), t, "passes pinned page data to %s, which retains its argument past the call", callee.Name())
	}
}

// checkGoCapture flags pinned data referenced inside a go statement —
// by the spawned closure's body or its arguments.
func (a *fnAnalysis) checkGoCapture(g *ast.GoStmt) {
	ast.Inspect(g.Call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := a.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		t := newTaint()
		if a.pinned[obj] {
			t.pins[obj] = true
		}
		if vt := a.vars[obj]; vt != nil {
			t.addAll(vt)
		}
		if idx, ok := a.params[obj]; ok {
			t.params[idx] = true
		}
		if !t.empty() && isRefType(obj.Type()) {
			a.flag(id.Pos(), t, "pinned page data captured by a goroutine outlives the pin")
			return false
		}
		return true
	})
}

// flag handles one escape event: pin-derived taint becomes a
// diagnostic (on the reporting pass), param-derived taint becomes a
// Retains fact.
func (a *fnAnalysis) flag(pos token.Pos, t *taint, format string, args ...any) {
	if a.report && len(t.pins) > 0 {
		a.pass.Reportf(pos, format, args...)
	}
	for idx := range t.params {
		a.fact.Retains = mergeInts(a.fact.Retains, []int{idx})
	}
}

func (a *fnAnalysis) reportf(pos token.Pos, format string, args ...any) {
	if a.report {
		a.pass.Reportf(pos, format, args...)
	}
}

func describeLHS(lhs ast.Expr) string {
	switch lhs.(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		return "a map or slice element"
	case *ast.StarExpr:
		return "a pointer target"
	}
	return "a heap location"
}

// isHeapLHS reports whether an assignment target escapes the local
// frame: a field, a global, an element of a non-local container, or a
// pointer dereference.
func (a *fnAnalysis) isHeapLHS(lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := a.pass.TypesInfo.Uses[l]
		if obj == nil {
			obj = a.pass.TypesInfo.Defs[l]
		}
		if v, ok := obj.(*types.Var); ok {
			// Package-level variable?
			return v.Parent() == v.Pkg().Scope()
		}
		return false
	case *ast.SelectorExpr:
		// Field of a plain local (non-pointer) struct value stays
		// local; anything else (receiver, pointer, package var) is
		// heap.
		if sel, ok := a.pass.TypesInfo.Selections[l]; ok && sel.Kind() == types.FieldVal {
			if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
				if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
					if _, isParam := a.params[obj]; !isParam {
						if _, isPtr := obj.Type().(*types.Pointer); !isPtr {
							if v, ok := obj.(*types.Var); ok && v.Parent() != v.Pkg().Scope() {
								return false // local value struct
							}
						}
					}
				}
			}
			return true
		}
		return true // qualified package var
	case *ast.IndexExpr:
		// Element of a local slice/map value is still heap-reachable if
		// the container itself escapes; conservatively treat container
		// locality like the selector case.
		if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
			if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
				if v, ok := obj.(*types.Var); ok && v.Parent() != v.Pkg().Scope() {
					if _, isParam := a.params[obj]; !isParam {
						return false // local container
					}
				}
			}
		}
		return true
	case *ast.StarExpr:
		return true
	}
	return false
}

// isRefExpr reports whether e's type can carry an alias (slice,
// pointer, struct containing either, map, chan, interface).
func (a *fnAnalysis) isRefExpr(e ast.Expr) bool {
	tv, ok := a.pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	return isRefType(tv.Type)
}

func isRefType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if isRefType(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// elemTypeOf resolves the effective appended-element type of one append
// argument: the arg's own type, or its slice element type under `...`.
func (a *fnAnalysis) elemTypeOf(arg ast.Expr, ellipsis bool) types.Type {
	tv, ok := a.pass.TypesInfo.Types[arg]
	if !ok {
		return nil
	}
	if ellipsis {
		if sl, ok := tv.Type.Underlying().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	return tv.Type
}

func isPagePtr(t types.Type) bool {
	if _, ok := t.(*types.Pointer); !ok {
		return false
	}
	return analysis.NamedIn(t, "pager", "Page")
}
