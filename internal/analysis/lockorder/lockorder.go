// Package lockorder builds a static lock-acquisition graph over the
// store's documented lock hierarchy and reports edges that invert it.
//
// The documented order (DESIGN.md; outermost first):
//
//	rank 10  core.Volume.mu        volume open/close vs operations
//	rank 15  core.Volume.ckptMu    checkpoint fence (brackets hold R)
//	rank 30  extent.Tree.mu        an object's extent tree
//	rank 33  osd.Store.rowMu       object-table row rewrites (an extent
//	                               tree's anchor takes it under the tree)
//	rank 36  btree.Tree.mu         btree latches
//	rank 38  pager queue mutex     the replacement queue (misses,
//	                               eviction, Invalidate)
//	rank 40  pager shard mutex     per-shard page latch
//
// Acquiring a lower-ranked (outer) lock while holding a higher-ranked
// (inner) one is the deadlock shape PR 3 pinned with a liveness test
// (Batch vs Close) and PR 7 re-audited for the abort path; this analyzer
// rejects it at compile time instead.
//
// Mechanics: every function gets a summary — the set of ranked locks it
// may acquire, directly or through the static calls in its body
// (closures it creates included, conservatively). Summaries are computed
// to a fixpoint within a package and exported as facts, so the analysis
// is fully interprocedural across packages: when a function calls `g`
// while syntactically holding rank h, and g's summary (local or
// imported) may acquire rank r < h, the call site is flagged, as is a
// direct `X.mu.Lock()` of rank r under a held rank h > r.
//
// Soundness notes (documented limits, not surprises): calls through
// interfaces and stored function values are not resolved; a lock
// acquired by a callee that *returns while still holding it* (the
// core.Volume.rlock pattern) is not tracked as held by the caller — the
// acquiring side of such an edge is still summary-visible, which is the
// direction the documented order cares about. Equal ranks are never
// flagged: distinct instances of one class (two btrees under one
// operation) are legal.
package lockorder

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "static lock graph over Volume.mu → extent tree → Store.rowMu → btree → pager queue → pager shard latches; reject inversions",
	Run:       run,
	UsesFacts: true,
}

// lockClass identifies one ranked mutex field. Packages are matched by
// the last element of their import path so analysistest fixtures (which
// mirror the real packages under short paths) rank identically.
type lockClass struct {
	pkg   string // last element of the defining package's path
	typ   string // receiver struct type name
	field string // mutex field name
	rank  int
	label string
}

var classes = []lockClass{
	{"core", "Volume", "mu", 10, "core.Volume.mu"},
	{"core", "Volume", "ckptMu", 15, "core.Volume.ckptMu"},
	{"extent", "Tree", "mu", 30, "extent.Tree.mu"},
	{"osd", "Store", "rowMu", 33, "osd.Store.rowMu"},
	{"btree", "Tree", "mu", 36, "btree.Tree.mu"},
	{"pager", "sieve", "mu", 38, "pager queue mutex"},
	{"pager", "shard", "mu", 40, "pager shard latch"},
}

func classByRank(rank int) *lockClass {
	for i := range classes {
		if classes[i].rank == rank {
			return &classes[i]
		}
	}
	return nil
}

// summary is the exported per-function fact: the set of lock ranks the
// function may acquire, transitively through static calls.
type summary struct {
	Ranks []int
}

type factFile struct {
	// Funcs maps a function key ("pkgpath.(Type).Name" or
	// "pkgpath.Name") to its may-acquire summary. Cumulative: includes
	// everything visible from this package, so direct-import facts
	// suffice for transitive callees.
	Funcs map[string]summary
}

func funcKey(f *types.Func) string {
	return f.Pkg().Path() + "." + funcName(f)
}

func funcName(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return "(" + named.Obj().Name() + ")." + f.Name()
		}
	}
	return f.Name()
}

func run(pass *analysis.Pass) error {
	// Seed the summary table with the facts of every dependency.
	global := make(map[string]summary)
	for _, blob := range pass.DepFacts {
		var ff factFile
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&ff); err != nil {
			continue
		}
		for k, s := range ff.Funcs {
			global[k] = mergeSummary(global[k], s)
		}
	}

	// Collect this package's function bodies.
	type fn struct {
		key  string
		body *ast.BlockStmt
	}
	var fns []fn
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, fn{key: funcKey(obj), body: fd.Body})
		}
	}

	// Fixpoint: local summaries stabilize over intra-package call cycles.
	for {
		changed := false
		for _, f := range fns {
			acq := collectAcquires(pass, f.body, global)
			merged := mergeSummary(global[f.key], summary{Ranks: acq})
			if len(merged.Ranks) != len(global[f.key].Ranks) {
				global[f.key] = merged
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Report: walk each body tracking syntactically held locks.
	for _, f := range fns {
		checkBody(pass, f.body, global, nil)
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

func mergeSummary(a, b summary) summary {
	set := make(map[int]bool)
	for _, r := range a.Ranks {
		set[r] = true
	}
	for _, r := range b.Ranks {
		set[r] = true
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return summary{Ranks: out}
}

// collectAcquires returns every rank body may acquire: direct Lock/RLock
// calls (closures included — they may run while the function's locks are
// held or later; both need their acquires visible to callers) plus the
// summaries of resolvable callees.
func collectAcquires(pass *analysis.Pass, body *ast.BlockStmt, global map[string]summary) []int {
	set := make(map[int]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if cls, _ := lockCall(pass, call); cls != nil {
			set[cls.rank] = true
			return true
		}
		if callee := analysis.StaticCallee(pass.TypesInfo, call); callee != nil {
			for _, r := range global[funcKey(callee)].Ranks {
				set[r] = true
			}
		}
		return true
	})
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// heldLock is one syntactically held acquisition.
type heldLock struct {
	rank  int
	label string
	pos   ast.Node
}

// checkBody walks one function (or closure) body in lexical order,
// maintaining the set of held ranked locks, and reports order
// inversions at direct acquisitions and static call sites. Closure
// bodies are checked independently with an empty held set — their
// execution time is unknown.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, global map[string]summary, held []heldLock) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkBody(pass, n.Body, global, nil)
			return false
		case *ast.DeferStmt:
			// A deferred unlock keeps the lock held to function end; a
			// deferred call runs with an unknowable held set — skip both
			// for held-tracking, but closures were already summarized.
			return false
		case *ast.CallExpr:
			if cls, unlock := lockCall(pass, n); cls != nil {
				if unlock {
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].rank == cls.rank {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
					return true
				}
				for _, h := range held {
					if cls.rank < h.rank {
						pass.Reportf(n.Pos(), "acquires %s (rank %d) while holding %s (rank %d): inverts the documented lock order",
							cls.label, cls.rank, h.label, h.rank)
					}
				}
				held = append(held, heldLock{rank: cls.rank, label: cls.label, pos: n})
				return true
			}
			if len(held) == 0 {
				return true
			}
			callee := analysis.StaticCallee(pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			sum := global[funcKey(callee)]
			for _, h := range held {
				for _, r := range sum.Ranks {
					if r < h.rank {
						pass.Reportf(n.Pos(), "call to %s may acquire %s (rank %d) while holding %s (rank %d): inverts the documented lock order",
							callee.Name(), rankLabel(r), r, h.label, h.rank)
					}
				}
			}
		}
		return true
	})
}

func rankLabel(r int) string {
	if c := classByRank(r); c != nil {
		return c.label
	}
	return fmt.Sprintf("rank-%d lock", r)
}

// lockCall matches `recv.field.Lock()` (and RLock/Unlock/RUnlock) where
// field is one of the ranked mutex fields. unlock reports the release
// half.
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (cls *lockClass, unlock bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fieldSel, ok := pass.TypesInfo.Selections[inner]
	if !ok || fieldSel.Kind() != types.FieldVal {
		return nil, false
	}
	field, ok := fieldSel.Obj().(*types.Var)
	if !ok {
		return nil, false
	}
	owner := analysis.NamedOf(fieldSel.Recv())
	if owner == nil || owner.Obj().Pkg() == nil {
		return nil, false
	}
	pkgElem := analysis.LastElem(owner.Obj().Pkg().Path())
	for i := range classes {
		c := &classes[i]
		if c.pkg == pkgElem && c.typ == owner.Obj().Name() && c.field == field.Name() {
			return c, method == "Unlock" || method == "RUnlock"
		}
	}
	return nil, false
}
