// Package syncerr makes durability-barrier errors impossible to drop
// silently. `Sync`/`Close` on a blockdev device, `Sync`/`FlushDirty` on
// the pager, and `Checkpoint` on the WAL are the points where the
// system's promises actually reach the disk; an ignored error there is
// not a style problem but a correctness hole — the caller proceeds as
// if data were stable when the kernel just told it otherwise (the
// classic fsync-gate shape: the error is reported once, and whoever
// discards it un-reports it for everyone downstream).
//
// The check is flow-sensitive, not syntactic: the error result must be
// *live* after the call — consumed by a branch, a return, an
// assignment into a structure, or a call — on at least one path.
// Reported:
//
//   - the call as a bare statement (`dev.Sync()`): result discarded;
//   - assignment to the blank identifier (`_ = dev.Sync()`);
//   - `defer dev.Close()` and `go dev.Sync()`: the result has no
//     receiver by construction;
//   - `err = dev.Sync()` where backward liveness over the CFG shows
//     `err` is dead — overwritten or never read — on every path after
//     the call.
//
// Liveness is solved with the cfg package's backward dataflow; a
// variable captured by any closure is conservatively always live, and
// named result parameters are live at function exit (a naked return
// publishes them). Intentional discards — a read-only close on an
// error path, say — take a `//hfadvet:allow syncerr — reason` at the
// call site.
//
// The same analyzer flags a statement that calls a mutator threading a
// *pager.Op and drops its error result: the op's captured records and
// inverses no longer match the structure state the caller believes in,
// which is how a partially applied mutation slips past rollback.
package syncerr

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the syncerr analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "syncerr",
	Doc:  "errors from durability barriers (Sync/Flush/Close/Checkpoint) and op-threading mutators must be checked",
	Run:  run,
}

// durabilityMethods maps package path element -> method names whose
// single error result is a durability verdict.
var durabilityMethods = map[string]map[string]bool{
	"blockdev": {"Sync": true, "Close": true},
	"pager":    {"Sync": true, "FlushDirty": true},
	"wal":      {"Checkpoint": true},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset.Position(f.Pos()).Filename) {
			// Tests tear down devices on paths where durability is
			// moot; the production rule doesn't transfer.
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd.Body, fd.Type.Results)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, lit.Body, lit.Type.Results)
				}
				return true
			})
		}
	}
	checkDiscardedOpErrors(pass)
	return nil
}

// live is the backward dataflow fact: the set of locals read on some
// path before being overwritten.
type live map[types.Object]bool

func (l live) clone() live {
	nl := make(live, len(l))
	for k := range l {
		nl[k] = true
	}
	return nl
}

type checker struct {
	pass       *analysis.Pass
	g          *cfg.Graph
	alwaysLive map[types.Object]bool
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt, results *ast.FieldList) {
	any := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && durabilityCall(pass, call) != "" {
			any = true
		}
		return !any
	})
	if !any {
		return
	}

	c := &checker{pass: pass, g: cfg.Build(body), alwaysLive: map[types.Object]bool{}}

	// A variable referenced inside any closure is live whenever the
	// closure could run; track conservatively.
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					c.alwaysLive[obj] = true
				}
			}
			return true
		})
		return false
	})

	// Named results are read by the implicit exit (naked returns and
	// deferred mutation both publish them).
	boundary := live{}
	if results != nil {
		for _, f := range results.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					boundary[obj] = true
				}
			}
		}
	}

	res := cfg.Solve(c.g, cfg.Problem[live]{
		Dir:      cfg.Backward,
		Boundary: boundary,
		Bottom:   func() live { return live{} },
		Transfer: func(b *cfg.Block, out live) live { return c.transfer(b, out, false) },
		Join: func(a, b live) live {
			out := a.clone()
			for k := range b {
				out[k] = true
			}
			return out
		},
		Equal: func(a, b live) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	})

	// Report from the fixed point.
	for _, b := range c.g.Blocks {
		c.transfer(b, res.Out[b], true)
	}
}

// transfer walks a block backward: the branch condition is evaluated
// last, then the nodes in reverse. Reporting happens against the
// liveness state that holds AFTER each node.
func (c *checker) transfer(b *cfg.Block, out live, report bool) live {
	cur := out.clone()
	if b.Cond != nil {
		c.gen(b.Cond, cur)
	}
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		c.transferNode(b.Nodes[i], cur, report)
	}
	return cur
}

func (c *checker) transferNode(n ast.Node, cur live, report bool) {
	switch n := n.(type) {
	case *ast.ExprStmt:
		if report {
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				if name := durabilityCall(c.pass, call); name != "" {
					c.pass.Reportf(n.Pos(), "error from %s is discarded: an unchecked durability barrier un-reports the failure for every caller downstream", name)
				}
			}
		}
		c.gen(n, cur)
	case *ast.DeferStmt:
		if report {
			if name := durabilityCall(c.pass, n.Call); name != "" {
				c.pass.Reportf(n.Pos(), "deferred %s discards its error: the durability verdict has no receiver", name)
			}
		}
		c.gen(n, cur)
	case *ast.GoStmt:
		if report {
			if name := durabilityCall(c.pass, n.Call); name != "" {
				c.pass.Reportf(n.Pos(), "%s launched in a goroutine discards its error", name)
			}
		}
		c.gen(n, cur)
	case *ast.AssignStmt:
		var durName string
		if len(n.Rhs) == 1 {
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
				durName = durabilityCall(c.pass, call)
			}
		}
		if durName != "" && len(n.Lhs) == 1 && report {
			if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok {
				if id.Name == "_" {
					c.pass.Reportf(n.Pos(), "error from %s is assigned to the blank identifier", durName)
				} else if obj := objOf(c.pass, id); obj != nil && !cur[obj] && !c.alwaysLive[obj] {
					c.pass.Reportf(n.Pos(), "error from %s is assigned to %s but never checked: %s is overwritten or unread on every path from here", durName, id.Name, id.Name)
				}
			}
		}
		// Kill plain-ident targets, then gen everything read.
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := objOf(c.pass, id); obj != nil {
					delete(cur, obj)
				}
				continue
			}
			c.gen(lhs, cur) // x[i] = ..., s.f = ...: base/index are reads
		}
		for _, rhs := range n.Rhs {
			c.gen(rhs, cur)
		}
	case *ast.DeclStmt:
		// var err error = f(): kill names, gen initialisers.
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
						delete(cur, obj)
					}
				}
				for _, v := range vs.Values {
					c.gen(v, cur)
				}
			}
		}
	default:
		c.gen(n, cur)
	}
}

// gen adds every identifier read within n to the live set.
func (c *checker) gen(n ast.Node, cur live) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar {
					cur[obj] = true
				}
			}
		}
		return true
	})
}

func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if id.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// durabilityCall reports whether call is a durability barrier —
// a method from durabilityMethods with a single error result — and
// returns a printable name ("(*FileDevice).Sync") or "".
func durabilityCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil {
		return ""
	}
	methods, ok := durabilityMethods[analysis.LastElem(f.Pkg().Path())]
	if !ok || !methods[f.Name()] {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	res := sig.Results()
	if res.Len() != 1 || !analysis.IsErrorType(res.At(0).Type()) {
		return ""
	}
	recv := sig.Recv().Type()
	name := recv.String()
	if named := analysis.NamedOf(recv); named != nil {
		name = named.Obj().Name()
	}
	return name + "." + f.Name()
}

// checkDiscardedOpErrors flags expression statements that call a
// function threading a *pager.Op and drop its error result.
func checkDiscardedOpErrors(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Fun]
			if !ok {
				return true
			}
			sig, ok := tv.Type.Underlying().(*types.Signature)
			if !ok || sig.Results().Len() == 0 {
				return true
			}
			if !analysis.IsErrorType(sig.Results().At(sig.Results().Len() - 1).Type()) {
				return true
			}
			opParam := false
			for i := 0; i < sig.Params().Len(); i++ {
				if isPagerOpPtr(sig.Params().At(i).Type()) {
					opParam = true
					break
				}
			}
			if !opParam {
				return true
			}
			pass.Reportf(es.Pos(), "error result of op-threading call is discarded: a failed mutation leaves the op's capture out of sync with the structure")
			return true
		})
	}
}

func isPagerOpPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Op" && obj.Pkg() != nil && analysis.LastElem(obj.Pkg().Path()) == "pager"
}
