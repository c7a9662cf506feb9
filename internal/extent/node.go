package extent

import (
	"fmt"
	"sync/atomic"

	"repro/internal/pager"
)

// insertCellAtOff inserts extent e at the extent boundary at byte offset
// off (off must lie on a boundary, or equal the current content total
// for appends), maintaining all subtree byte counts. Full nodes on the
// way are split first — each split an auto-committed, sum-preserving
// system transaction — and the descent retried, so the insert itself is
// always a plain per-operation record into a leaf with room and the
// split records never carry the (possibly uncommitted) triggering cell.
// Callers hold the tree lock.
//
// The call takes over e's allocation: if the cell cannot be inserted the
// run goes back to the allocator, in the operation's own records — they
// commit even when the operation fails, and already hold the run's
// allocation.
func (t *Tree) insertCellAtOff(off uint64, e Extent) error {
	inserted, err := t.insertCell(off, e)
	if !inserted && !e.IsHole() {
		_ = t.space.Free(t.curOp, e.Alloc, uint64(e.AllocBlocks))
	}
	return err
}

// insertCell is insertCellAtOff's body; it reports whether the cell
// reached its leaf (an error may still follow, from the count fixups).
func (t *Tree) insertCell(off uint64, e Extent) (bool, error) {
	for {
		path, leafPno, rem, err := t.descend(off)
		if err != nil {
			return false, err
		}
		pg, err := t.pg.Acquire(leafPno)
		if err != nil {
			return false, err
		}
		n := nodeRef{pg.Data()}
		if n.typ() != pageLeaf {
			t.pg.Release(pg)
			return false, fmt.Errorf("%w: insert into non-leaf %d", ErrCorrupt, leafPno)
		}
		idx, eOff := n.findInLeaf(rem)
		if eOff != 0 {
			t.pg.Release(pg)
			return false, fmt.Errorf("%w: insert target %d not on boundary", ErrCorrupt, off)
		}
		if n.ncells() < t.leafCap() {
			n.insertLeafCell(idx, e)
			t.rec(pg, t.curOp, encXop(xopLeafIns, xu16(idx), encCell(e)))
			t.pg.Release(pg)
			t.extents++
			return true, t.bumpCounts(path, int64(e.Len))
		}
		t.pg.Release(pg)

		// Leaf full: split it, then re-descend and retry the insert.
		sys := t.curOp.NewSys()
		_, _, err = t.splitNodeSys(sys, path, leafPno)
		// Every split touches the header, grown root or not: recovery
		// recounts the trees whose header page replay materialized, and a
		// split replayed without the cells of a dropped operation leaves
		// the parent's sums for that recount to heal.
		if herr := t.writeRootSys(sys); err == nil {
			err = herr
		}
		// Append whatever was staged even on error: each record was
		// staged right after its mutation landed in cache, so the log
		// stays consistent with the (possibly partially split) in-cache
		// tree, and the enclosing op's own records — which the commit
		// bracket appends even on failure — may already target the new
		// right page.
		aerr := sys.AppendSys()
		if err != nil {
			return false, err
		}
		if aerr != nil {
			return false, aerr
		}
	}
}

// splitNodeSys splits the full node pno around its cell midpoint as part
// of system transaction sys, records the new sibling in the parent
// (splitting full parents first, recursively), and grows the root as
// needed. The split is sum-preserving: cells only redistribute between
// the two halves and the parent's entries are rewritten to the exact
// partial sums, so no byte count above the split level changes — which
// is what lets an always-redone split replay against committed state
// without disturbing any operation's count deltas. Returns the new
// right sibling's page and the split index.
func (t *Tree) splitNodeSys(sys *pager.Op, path []pathElem, pno uint64) (uint64, int, error) {
	aop := t.allocOp(sys)
	rightPno, err := t.space.Alloc(aop, 1)
	if err != nil {
		return 0, 0, err
	}
	pg, err := t.pg.Acquire(pno)
	if err != nil {
		_ = t.freePage(aop, rightPno) // never joined the tree
		return 0, 0, err
	}
	n := nodeRef{pg.Data()}
	rpg, err := t.pg.AcquireZero(rightPno)
	if err != nil {
		t.pg.Release(pg)
		_ = t.freePage(aop, rightPno)
		return 0, 0, err
	}
	rn := nodeRef{rpg.Data()}
	rn.data[offType] = n.typ()
	cnt := n.ncells()
	mid := cnt / 2
	copy(cellBytes(rn, 0, cnt-mid), cellBytes(n, mid, cnt))
	rn.setNCells(cnt - mid)
	n.setNCells(mid)
	isLeaf := n.typ() == pageLeaf
	var oldNext uint64
	if isLeaf {
		oldNext = n.next()
		rn.setNext(oldNext)
		rn.setPrev(pno)
		n.setNext(rightPno)
	}
	var leftSum, rightSum uint64
	if isLeaf {
		leftSum, rightSum = n.leafSum(), rn.leafSum()
	} else {
		leftSum, rightSum = n.childSum(), rn.childSum()
	}
	t.rec(pg, sys, encXop(xopSplit, xu64(rightPno), xu16(mid)))
	// The right page is fresh and fully determined by the split record;
	// it needs no record (or base image) of its own.
	t.pg.MarkDirty(rpg)
	t.pg.Release(rpg)
	t.pg.Release(pg)
	if oldNext != 0 {
		npg, err := t.pg.Acquire(oldNext)
		if err != nil {
			return rightPno, mid, err
		}
		nodeRef{npg.Data()}.setPrev(rightPno)
		t.recRange(npg, sys, offPtrB, xu64(rightPno))
		t.pg.Release(npg)
	}
	t.addStat(func(s *Stats) { s.Splits++ })

	if len(path) == 0 {
		// Grow the root: new internal root with the two halves.
		newRoot, err := t.space.Alloc(aop, 1)
		if err != nil {
			return rightPno, mid, err
		}
		npg, err := t.pg.AcquireZero(newRoot)
		if err != nil {
			_ = t.freePage(aop, newRoot)
			return rightPno, mid, err
		}
		nn := nodeRef{npg.Data()}
		nn.data[offType] = pageInternal
		nn.setChildCell(0, childEntry{pno, leftSum})
		nn.setChildCell(1, childEntry{rightPno, rightSum})
		nn.setNCells(2)
		t.rec(npg, sys, encXop(xopNewRoot, xu64(pno), xu64(leftSum), xu64(rightPno), xu64(rightSum)))
		t.pg.Release(npg)
		t.root = newRoot
		t.height++
		return rightPno, mid, nil // insertCellAtOff logs the new root
	}

	// Record the new sibling in the parent, splitting it first if full.
	pe := path[len(path)-1]
	parentPno, pidx := pe.pno, pe.idx
	ppg, err := t.pg.Acquire(parentPno)
	if err != nil {
		return rightPno, mid, err
	}
	if (nodeRef{ppg.Data()}).ncells() >= t.internalCap() {
		t.pg.Release(ppg)
		pr, pm, err := t.splitNodeSys(sys, path[:len(path)-1], parentPno)
		if err != nil {
			return rightPno, mid, err
		}
		if pidx >= pm {
			parentPno, pidx = pr, pidx-pm
		}
		ppg, err = t.pg.Acquire(parentPno)
		if err != nil {
			return rightPno, mid, err
		}
	}
	pn := nodeRef{ppg.Data()}
	if pidx >= pn.ncells() || pn.childCell(pidx).child != pno {
		t.pg.Release(ppg)
		return rightPno, mid, fmt.Errorf("%w: parent cell %d does not reach split child %d", ErrCorrupt, pidx, pno)
	}
	pn.setChildCell(pidx, childEntry{pno, leftSum})
	t.rec(ppg, sys, encXop(xopChildSet, xu16(pidx), xu64(pno), xu64(leftSum)))
	pn.insertChildCell(pidx+1, childEntry{rightPno, rightSum})
	t.rec(ppg, sys, encXop(xopChildIns, xu16(pidx+1), xu64(rightPno), xu64(rightSum)))
	t.pg.Release(ppg)
	return rightPno, mid, nil
}

// removeCellAt deletes the cell at idx of the leaf at the end of path,
// maintaining counts. The extent's storage is NOT freed here (callers
// free allocations). off is the byte offset the removal happened at,
// used to re-find the leaf if a rebalance is warranted. Underfull nodes
// merge lazily: immediately when unlogged, but deferred until the
// deleting transaction commits when a redo capture is open — a merge is
// a system transaction redone unconditionally, so running it while the
// delete was uncommitted would let replay pack the undeleted cell plus
// the whole sibling into one page (the same hazard btree's deferred
// rebalance closes).
func (t *Tree) removeCellAt(path []pathElem, leafPno uint64, idx int, off uint64) error {
	pg, err := t.pg.Acquire(leafPno)
	if err != nil {
		return err
	}
	n := nodeRef{pg.Data()}
	e := n.leafCell(idx)
	n.removeLeafCell(idx)
	t.rec(pg, t.curOp, encXop(xopLeafDel, xu16(idx)))
	underfull := n.ncells() < t.leafCap()/4
	t.pg.Release(pg)
	t.extents--
	if err := t.bumpCounts(path, -int64(e.Len)); err != nil {
		return err
	}
	if underfull && len(path) > 0 {
		if t.curOp != nil {
			// One deferred rebalance per operation, retargeted to the
			// latest removal: a Truncate draining hundreds of cells
			// registers one post-commit closure, not hundreds.
			if t.rebalOp == t.curOp {
				t.rebalOff.Store(off)
			} else {
				cell := new(atomic.Uint64)
				cell.Store(off)
				t.rebalOp, t.rebalOff = t.curOp, cell
				t.curOp.Defer(func(sys *pager.Op) error { return t.RebalanceAt(sys, cell.Load()) })
			}
		} else if _, err := t.maybeMerge(nil, path, leafPno); err != nil {
			return err
		}
	}
	return nil
}

// RebalanceAt re-checks the leaf containing byte offset off and merges
// it with siblings while it stays underfull — the deferred half of a
// logged delete, run after the deleting transaction committed, with sys
// as the merge's system-transaction capture. It loops because one
// deferred rebalance stands in for a whole operation's removals: a bulk
// DeleteRange drains a contiguous run of leaves, and each merge absorbs
// the next adjacent drained sibling, so looping until no merge fires
// reclaims the run the way the per-removal merges of the unlogged path
// do. The tree may have changed since the delete; a leaf that is no
// longer underfull (or a tree that shrank past off) just means no work.
func (t *Tree) RebalanceAt(sys *pager.Op, off uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.height <= 1 {
			return nil
		}
		if off >= t.size {
			if t.size == 0 {
				off = 0
			} else {
				off = t.size - 1
			}
		}
		path, leafPno, _, err := t.descend(off)
		if err != nil {
			return err
		}
		if len(path) == 0 {
			return nil
		}
		pg, err := t.pg.Acquire(leafPno)
		if err != nil {
			return err
		}
		underfull := (nodeRef{pg.Data()}).ncells() < t.leafCap()/4
		t.pg.Release(pg)
		if !underfull {
			return nil
		}
		merged, err := t.maybeMerge(sys, path, leafPno)
		if err != nil {
			return err
		}
		if !merged {
			return nil
		}
	}
}

// maybeMerge merges the node at nodePno with an adjacent sibling when
// their combined cells fit in one page (lazy, merge-only rebalancing),
// reporting whether a merge happened at this level. The whole merge —
// sibling absorption, parent fixup, root collapse — is logged as one
// typed record on the parent plus chain-pointer range records, all in
// sys (nil = unlogged).
func (t *Tree) maybeMerge(sys *pager.Op, path []pathElem, nodePno uint64) (bool, error) {
	pe := path[len(path)-1]
	ppg, err := t.pg.Acquire(pe.pno)
	if err != nil {
		return false, err
	}
	pn := nodeRef{ppg.Data()}
	cnt := pn.ncells()
	if pe.idx >= cnt || pn.childCell(pe.idx).child != nodePno {
		t.pg.Release(ppg)
		return false, fmt.Errorf("%w: stale merge path", ErrCorrupt)
	}

	var pairs []int // left index of each candidate sibling pair
	if pe.idx+1 < cnt {
		pairs = append(pairs, pe.idx)
	}
	if pe.idx > 0 {
		pairs = append(pairs, pe.idx-1)
	}

	for _, li := range pairs {
		left := pn.childCell(li)
		right := pn.childCell(li + 1)
		merged, err := t.mergeChildren(sys, left.child, right.child)
		if err != nil {
			t.pg.Release(ppg)
			return false, err
		}
		if !merged {
			continue
		}
		// Parent: left entry absorbs right's bytes; right entry removed.
		pn.setChildCell(li, childEntry{left.child, left.bytes + right.bytes})
		pn.removeChildCell(li + 1)
		t.rec(ppg, sys, encXop(xopMerge, xu16(li)))
		t.addStat(func(s *Stats) { s.Merges++ })

		rootSingle := pe.pno == t.root && pn.ncells() == 1
		var newRoot uint64
		if rootSingle {
			newRoot = pn.childCell(0).child
		}
		underfull := pn.ncells() < t.internalCap()/4
		t.pg.Release(ppg)

		if err := t.freePage(sys, right.child); err != nil {
			return true, err
		}
		if rootSingle {
			if err := t.freePage(sys, pe.pno); err != nil {
				return true, err
			}
			t.root = newRoot
			t.height--
			return true, t.writeRootSys(sys)
		}
		if underfull && len(path) > 1 {
			_, err := t.maybeMerge(sys, path[:len(path)-1], pe.pno)
			return true, err
		}
		return true, nil
	}
	t.pg.Release(ppg)
	return false, nil
}

// mergeChildren absorbs rightPno's cells into leftPno if they fit. The
// left page's new content is covered by the parent's merge record (the
// parent still holds both entries when the record is stamped, so replay
// re-derives the same absorption); only the next leaf's back pointer
// needs its own range record.
func (t *Tree) mergeChildren(sys *pager.Op, leftPno, rightPno uint64) (bool, error) {
	lpg, err := t.pg.Acquire(leftPno)
	if err != nil {
		return false, err
	}
	ln := nodeRef{lpg.Data()}
	rpg, err := t.pg.Acquire(rightPno)
	if err != nil {
		t.pg.Release(lpg)
		return false, err
	}
	rn := nodeRef{rpg.Data()}
	if ln.typ() != rn.typ() {
		t.pg.Release(rpg)
		t.pg.Release(lpg)
		return false, fmt.Errorf("%w: merge type mismatch", ErrCorrupt)
	}
	var capacity int
	if ln.typ() == pageLeaf {
		capacity = t.leafCap()
	} else {
		capacity = t.internalCap()
	}
	base, rcnt := ln.ncells(), rn.ncells()
	if base+rcnt > capacity {
		t.pg.Release(rpg)
		t.pg.Release(lpg)
		return false, nil
	}
	// Pin the next leaf BEFORE mutating anything: every fallible step
	// must come first, so an I/O error aborts the merge with the cache
	// untouched — never with the left node absorbed but the parent (and
	// the merge record) still describing two children.
	var next uint64
	var npg *pager.Page
	if ln.typ() == pageLeaf {
		if next = rn.next(); next != 0 {
			var err error
			if npg, err = t.pg.Acquire(next); err != nil {
				t.pg.Release(rpg)
				t.pg.Release(lpg)
				return false, err
			}
		}
	}
	copy(cellBytes(ln, base, base+rcnt), cellBytes(rn, 0, rcnt))
	ln.setNCells(base + rcnt)
	if ln.typ() == pageLeaf {
		ln.setNext(next)
	}
	t.pg.MarkDirty(lpg)
	t.pg.Release(rpg)
	t.pg.Release(lpg)
	if npg != nil {
		nodeRef{npg.Data()}.setPrev(leftPno)
		t.recRange(npg, sys, offPtrB, xu64(leftPno))
		t.pg.Release(npg)
	}
	return true, nil
}

func (t *Tree) freePage(op *pager.Op, pno uint64) error {
	if err := t.pg.Invalidate(pno); err != nil {
		return err
	}
	return t.space.Free(op, pno, 1)
}

// allocOp picks the operation that carries a split's page allocations:
// the split's system transaction sys, unless the mutating operation is
// the one that created this tree — then nothing but that operation's own
// uncommitted records reaches the tree, and an allocation logged with an
// always-redone split would leak its page whenever those records are
// dropped at a crash (btree.Tree.allocOp has the long form).
func (t *Tree) allocOp(sys *pager.Op) *pager.Op {
	if t.creator != 0 && t.curOp.ID() == t.creator {
		return t.curOp
	}
	return sys
}

// setLeafCellLen updates the Len of one cell and fixes counts along path.
func (t *Tree) setLeafCellLen(path []pathElem, leafPno uint64, idx int, newLen uint32) error {
	pg, err := t.pg.Acquire(leafPno)
	if err != nil {
		return err
	}
	n := nodeRef{pg.Data()}
	e := n.leafCell(idx)
	delta := int64(newLen) - int64(e.Len)
	e.Len = newLen
	n.setLeafCell(idx, e)
	t.rec(pg, t.curOp, encXop(xopLeafSet, xu16(idx), encCell(e)))
	t.pg.Release(pg)
	return t.bumpCounts(path, delta)
}
