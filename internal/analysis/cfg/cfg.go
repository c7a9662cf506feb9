// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies, and solves dataflow problems over them (solve.go).
//
// The graph is deliberately syntactic: blocks hold the *ast.Node
// statements (and branch-condition expressions) in execution order, so
// analyzers keep reporting positions and consulting types.Info exactly
// as they would walking the AST — they just get path structure for
// free. Modeled:
//
//   - if/else, for, range, switch (incl. fallthrough), type switch,
//     select, labeled break/continue, goto;
//   - short-circuit && / || / ! in branch conditions: each leaf
//     condition terminates its own block (Cond non-nil) with Succs[0]
//     the true edge and Succs[1] the false edge, so a dataflow client
//     can refine facts along a specific branch (e.g. on an
//     `err != nil` guard);
//   - return/panic edges to the synthetic Exit block;
//   - defer: the DeferStmt appears in its block (argument evaluation
//     happens at the defer site) AND is collected in Graph.Defers, since
//     the deferred call itself runs at every function exit.
//
// Nested function literals are NOT descended into: a closure body is a
// separate function with its own graph; Build records the literals it
// skipped in Graph.FuncLits so clients can recurse deliberately.
//
// Limits (documented, not surprises): panics from runtime errors
// (indexing, nil deref) are not modeled as edges; `select {}` and
// `for {}` without breaks have no edge to Exit (the code after them is
// genuinely unreachable); goroutine interleavings are out of scope.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block // Entry first, Exit second, then creation order

	// Defers lists every defer statement lexically in the body (nested
	// closures excluded), outermost-first. Deferred calls run at every
	// path to Exit, in reverse order.
	Defers []*ast.DeferStmt

	// FuncLits lists the function literals whose bodies were NOT
	// inlined into this graph.
	FuncLits []*ast.FuncLit
}

// Block is one straight-line run of nodes.
type Block struct {
	Index int
	Kind  string     // "entry", "exit", "if.then", "for.body", ... (stable; tests assert on it)
	Nodes []ast.Node // statements, and a trailing branch condition if Cond != nil
	Succs []*Block
	Preds []*Block

	// Cond, when non-nil, is the branch condition this block ends with:
	// Succs[0] is taken when it evaluates true, Succs[1] when false.
	Cond ast.Expr
}

func (b *Block) String() string { return fmt.Sprintf("b%d.%s", b.Index, b.Kind) }

// Build constructs the graph for body.
func Build(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.labels = make(map[string]*labelInfo)
	b.cur = b.g.Entry
	b.stmt(body)
	b.jumpTo(b.g.Exit)
	for _, pg := range b.pendingGotos {
		li := b.labels[pg.label]
		if li == nil { // label in a skipped closure or malformed code
			continue
		}
		addEdge(pg.from, li.block)
	}
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.g
}

type builder struct {
	g   *Graph
	cur *Block // nil after a terminating statement (unreachable code starts a fresh block)

	targets      *targets
	labels       map[string]*labelInfo
	pendingLabel string
	pendingGotos []pendingGoto
	fall         *Block // fallthrough target inside a switch case
}

// targets is the stack of enclosing break/continue destinations.
type targets struct {
	tail    *targets
	breakTo *Block
	contTo  *Block // nil for switch/select
	label   string // non-empty when the construct is labeled
}

type labelInfo struct{ block *Block }

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func addEdge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// jumpTo links the current block (if reachable) to dst and leaves the
// builder with no current block.
func (b *builder) jumpTo(dst *Block) {
	if b.cur != nil {
		addEdge(b.cur, dst)
	}
	b.cur = nil
}

// startBlock makes dst current, creating the fall-in edge from the
// previous current block if one is live.
func (b *builder) startBlock(dst *Block) {
	if b.cur != nil {
		addEdge(b.cur, dst)
	}
	b.cur = dst
}

// add appends a node to the current block, reviving an unreachable
// region as a fresh disconnected block (so dataflow sees its nodes but
// no facts flow in).
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.EmptyStmt:

	case *ast.LabeledStmt:
		lb := b.newBlock("label." + s.Label.Name)
		b.labels[s.Label.Name] = &labelInfo{block: lb}
		b.startBlock(lb)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.collectFuncLits(s)
		b.jumpTo(b.g.Exit)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(s.Label, false); t != nil {
				b.add(s)
				b.jumpTo(t)
			}
		case token.CONTINUE:
			if t := b.findTarget(s.Label, true); t != nil {
				b.add(s)
				b.jumpTo(t)
			}
		case token.GOTO:
			b.add(s)
			if b.cur != nil {
				b.pendingGotos = append(b.pendingGotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			b.add(s)
			if b.fall != nil {
				b.jumpTo(b.fall)
			}
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		els := done
		if s.Else != nil {
			els = b.newBlock("if.else")
		}
		b.cond(s.Cond, then, els)
		b.cur = then
		b.stmt(s.Body)
		b.jumpTo(done)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			b.jumpTo(done)
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.startBlock(head)
		if s.Cond != nil {
			b.cond(s.Cond, body, done)
		} else {
			b.jumpTo(body)
		}
		b.cur = body
		b.pushTargets(done, post, label)
		b.stmt(s.Body)
		b.popTargets()
		b.jumpTo(post)
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.jumpTo(head)
		}
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		b.startBlock(head)
		b.add(s) // key/value assignment + the range operand
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		addEdge(head, body)
		addEdge(head, done)
		b.cur = body
		b.pushTargets(done, head, label)
		b.stmt(s.Body)
		b.popTargets()
		b.jumpTo(head)
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
			b.collectFuncLits(s.Tag)
		}
		b.switchBody(s.Body, label, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			nodes := make([]ast.Node, len(cc.List))
			for i, e := range cc.List {
				nodes[i] = e
			}
			return nodes, cc.Body, cc.List == nil
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.collectFuncLits(s.Assign)
		b.switchBody(s.Body, label, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			return nil, cc.Body, cc.List == nil
		})

	case *ast.SelectStmt:
		label := b.takeLabel()
		done := b.newBlock("select.done")
		head := b.cur
		if head == nil {
			head = b.newBlock("unreachable")
			b.cur = head
		}
		b.pushTargets(done, nil, label)
		hasClause := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			hasClause = true
			blk := b.newBlock("select.case")
			addEdge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jumpTo(done)
		}
		b.popTargets()
		if !hasClause {
			// select {} blocks forever: no successor.
			b.cur = nil
			return
		}
		b.cur = done

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)
		b.collectFuncLits(s)

	case *ast.GoStmt, *ast.ExprStmt, *ast.SendStmt, *ast.IncDecStmt,
		*ast.AssignStmt, *ast.DeclStmt:
		b.add(s)
		b.collectFuncLits(s)
		if es, ok := s.(*ast.ExprStmt); ok && isTerminalCall(es.X) {
			b.jumpTo(b.g.Exit)
		}

	default:
		b.add(s)
	}
}

// switchBody builds the clause structure shared by switch and type
// switch. The head block gets an edge to every case body (plus to done
// when there is no default); fallthrough chains case i to case i+1.
func (b *builder) switchBody(body *ast.BlockStmt, label string, split func(*ast.CaseClause) ([]ast.Node, []ast.Stmt, bool)) {
	done := b.newBlock("switch.done")
	head := b.cur
	if head == nil {
		head = b.newBlock("unreachable")
		b.cur = head
	}
	type clause struct {
		blk  *ast.CaseClause
		body *Block
	}
	var clauses []clause
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		nodes, _, isDefault := split(cc)
		for _, n := range nodes {
			head.Nodes = append(head.Nodes, n)
			b.collectFuncLits(n)
		}
		if isDefault {
			hasDefault = true
		}
		cb := b.newBlock("switch.case")
		addEdge(head, cb)
		clauses = append(clauses, clause{blk: cc, body: cb})
	}
	if !hasDefault {
		addEdge(head, done)
	}
	b.pushTargets(done, nil, label)
	for i, c := range clauses {
		b.cur = c.body
		savedFall := b.fall
		if i+1 < len(clauses) {
			b.fall = clauses[i+1].body
		} else {
			b.fall = nil
		}
		_, stmts, _ := split(c.blk)
		b.stmtList(stmts)
		b.fall = savedFall
		b.jumpTo(done)
	}
	b.popTargets()
	b.cur = done
}

// cond compiles a branch condition, splitting short-circuit operators
// into chained one-condition blocks. On return the builder has no
// current block (both arms were linked).
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock("cond.and")
			b.cond(x.X, mid, f)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock("cond.or")
			b.cond(x.X, t, mid)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	}
	// Leaf condition: terminate the current block on it.
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, e)
	b.cur.Cond = e
	b.collectFuncLits(e)
	addEdge(b.cur, t)
	addEdge(b.cur, f)
	b.cur = nil
}

func (b *builder) pushTargets(brk, cont *Block, label string) {
	b.targets = &targets{tail: b.targets, breakTo: brk, contTo: cont, label: label}
}

func (b *builder) popTargets() { b.targets = b.targets.tail }

// takeLabel consumes the label pending from an enclosing LabeledStmt so
// `break L` / `continue L` resolve to this construct.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) findTarget(label *ast.Ident, isContinue bool) *Block {
	for t := b.targets; t != nil; t = t.tail {
		if isContinue && t.contTo == nil {
			continue // switch/select: continue passes through to the loop
		}
		if label != nil && t.label != label.Name {
			continue
		}
		if isContinue {
			return t.contTo
		}
		return t.breakTo
	}
	return nil
}

// collectFuncLits records closures under n without inlining them.
func (b *builder) collectFuncLits(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			b.g.FuncLits = append(b.g.FuncLits, lit)
			return false
		}
		return true
	})
}

// isTerminalCall recognizes the statements after which control cannot
// continue: panic(...) and the conventional process-enders.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			full := pkg.Name + "." + fun.Sel.Name
			return full == "os.Exit" || full == "runtime.Goexit" ||
				strings.HasPrefix(full, "log.Fatal")
		}
	}
	return false
}
