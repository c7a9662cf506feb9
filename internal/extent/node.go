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
		inserted := false
		err = t.pg.With(leafPno, func(pg *pager.Page) error {
			n := nodeRef{pg.Data()}
			if n.typ() != pageLeaf {
				return fmt.Errorf("%w: insert into non-leaf %d", ErrCorrupt, leafPno)
			}
			idx, eOff := n.findInLeaf(rem)
			if eOff != 0 {
				return fmt.Errorf("%w: insert target %d not on boundary", ErrCorrupt, off)
			}
			if inserted = n.ncells() < t.leafCap(); inserted {
				n.insertLeafCell(idx, e)
				t.rec(pg, t.curOp, encXop(xopLeafIns, xu16(idx), encCell(e)))
			}
			return nil
		})
		if err != nil {
			return false, err
		}
		if inserted {
			return true, t.bumpCounts(path, int64(e.Len))
		}

		// Leaf full: split it, then re-descend and retry the insert.
		sys := t.smoOp()
		root := t.root
		_, _, err = t.splitNodeSys(sys, path, leafPno)
		if t.root != root {
			if herr := t.writeRootSys(sys); err == nil {
				err = herr
			}
		}
		// Append whatever was staged even on error: each record was
		// staged right after its mutation landed in cache, so the log
		// stays consistent with the (possibly partially split) in-cache
		// tree, and the enclosing op's own records — which the commit
		// bracket appends even on failure — may already target the new
		// right page. A split the operation carries itself commits with it.
		var aerr error
		if sys != t.curOp {
			aerr = sys.AppendSys()
		}
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
// partial sums, so no byte count above the split level changes. Its
// records name the halves but carry no sums: replay derives each from the
// half as replay has built it, so an always-redone split replayed without
// a dropped operation's cells sums what the log kept. Returns the new
// right sibling's page and the split index.
func (t *Tree) splitNodeSys(sys *pager.Op, path []pathElem, pno uint64) (uint64, int, error) {
	rightPno, err := t.space.Alloc(sys, 1)
	if err != nil {
		return 0, 0, err
	}
	var mid int
	var oldNext, leftSum, rightSum uint64
	err = t.pg.With(pno, func(pg *pager.Page) error {
		return t.pg.WithZero(rightPno, func(rpg *pager.Page) error {
			n, rn := nodeRef{pg.Data()}, nodeRef{rpg.Data()}
			rn.data[offType] = n.typ()
			cnt := n.ncells()
			mid = cnt / 2
			copy(cellBytes(rn, 0, cnt-mid), cellBytes(n, mid, cnt))
			rn.setNCells(cnt - mid)
			n.setNCells(mid)
			if n.typ() == pageLeaf {
				oldNext = n.next()
				rn.setNext(oldNext)
				rn.setPrev(pno)
				n.setNext(rightPno)
				leftSum, rightSum = n.leafSum(), rn.leafSum()
			} else {
				leftSum, rightSum = n.childSum(), rn.childSum()
			}
			t.rec(pg, sys, encXop(xopSplit, xu64(rightPno), xu16(mid)))
			// The right page is fresh and fully determined by the split
			// record; it needs no record (or base image) of its own.
			t.pg.MarkDirty(rpg)
			return nil
		})
	})
	if err != nil {
		_ = t.freePage(sys, rightPno) // never joined the tree
		return 0, 0, err
	}
	if oldNext != 0 {
		err := t.pg.With(oldNext, func(npg *pager.Page) error {
			nodeRef{npg.Data()}.setPrev(rightPno)
			t.recRange(npg, sys, offPtrB, xu64(rightPno))
			return nil
		})
		if err != nil {
			return rightPno, mid, err
		}
	}
	t.addStat(func(s *Stats) { s.Splits++ })

	if len(path) == 0 {
		// Grow the root: new internal root with the two halves.
		newRoot, err := t.space.Alloc(sys, 1)
		if err != nil {
			return rightPno, mid, err
		}
		err = t.pg.WithZero(newRoot, func(npg *pager.Page) error {
			nn := nodeRef{npg.Data()}
			nn.data[offType] = pageInternal
			nn.setChildCell(0, childEntry{pno, leftSum})
			nn.setChildCell(1, childEntry{rightPno, rightSum})
			nn.setNCells(2)
			t.rec(npg, sys, encXop(xopNewRoot, xu64(pno), xu64(rightPno)))
			return nil
		})
		if err != nil {
			_ = t.freePage(sys, newRoot)
			return rightPno, mid, err
		}
		t.root = newRoot
		t.height++
		return rightPno, mid, nil // insertCell logs the new root
	}

	// Record the new sibling in the parent, splitting it first if full.
	pe := path[len(path)-1]
	parentPno, pidx := pe.pno, pe.idx
	link := func(ppg *pager.Page) error {
		pn := nodeRef{ppg.Data()}
		if pidx >= pn.ncells() || pn.childCell(pidx).child != pno {
			return fmt.Errorf("%w: parent cell %d does not reach split child %d", ErrCorrupt, pidx, pno)
		}
		pn.setChildCell(pidx, childEntry{pno, leftSum})
		t.rec(ppg, sys, encXop(xopChildSet, xu16(pidx), xu64(pno)))
		pn.insertChildCell(pidx+1, childEntry{rightPno, rightSum})
		t.rec(ppg, sys, encXop(xopChildIns, xu16(pidx+1), xu64(rightPno)))
		return nil
	}
	full := false
	err = t.pg.With(parentPno, func(ppg *pager.Page) error {
		if full = (nodeRef{ppg.Data()}).ncells() >= t.internalCap(); full {
			return nil
		}
		return link(ppg)
	})
	if err == nil && full {
		var pr uint64
		var pm int
		if pr, pm, err = t.splitNodeSys(sys, path[:len(path)-1], parentPno); err == nil {
			if pidx >= pm {
				parentPno, pidx = pr, pidx-pm
			}
			err = t.pg.With(parentPno, link)
		}
	}
	return rightPno, mid, err
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
	var e Extent
	var underfull bool
	err := t.pg.With(leafPno, func(pg *pager.Page) error {
		n := nodeRef{pg.Data()}
		e = n.leafCell(idx)
		n.removeLeafCell(idx)
		t.rec(pg, t.curOp, encXop(xopLeafDel, xu16(idx)))
		underfull = n.ncells() < t.leafCap()/4
		return nil
	})
	if err != nil {
		return err
	}
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
		var underfull bool
		err = t.pg.With(leafPno, func(pg *pager.Page) error {
			underfull = (nodeRef{pg.Data()}).ncells() < t.leafCap()/4
			return nil
		})
		if err != nil || !underfull {
			return err
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
	var merged, rootSingle, underfull bool
	var right, newRoot uint64
	err := t.pg.With(pe.pno, func(ppg *pager.Page) error {
		pn := nodeRef{ppg.Data()}
		cnt := pn.ncells()
		if pe.idx >= cnt || pn.childCell(pe.idx).child != nodePno {
			return fmt.Errorf("%w: stale merge path", ErrCorrupt)
		}
		var pairs []int // left index of each candidate sibling pair
		if pe.idx+1 < cnt {
			pairs = append(pairs, pe.idx)
		}
		if pe.idx > 0 {
			pairs = append(pairs, pe.idx-1)
		}
		for _, li := range pairs {
			left, rc := pn.childCell(li), pn.childCell(li+1)
			var err error
			if merged, err = t.mergeChildren(sys, left.child, rc.child); err != nil {
				return err
			}
			if !merged {
				continue
			}
			// Parent: left entry absorbs right's bytes; right entry removed.
			pn.setChildCell(li, childEntry{left.child, left.bytes + rc.bytes})
			pn.removeChildCell(li + 1)
			t.rec(ppg, sys, encXop(xopMerge, xu16(li)))
			right = rc.child
			if rootSingle = pe.pno == t.root && pn.ncells() == 1; rootSingle {
				newRoot = pn.childCell(0).child
			}
			underfull = pn.ncells() < t.internalCap()/4
			return nil
		}
		return nil
	})
	if err != nil || !merged {
		return false, err
	}
	t.addStat(func(s *Stats) { s.Merges++ })
	if err := t.freePage(sys, right); err != nil {
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

// mergeChildren absorbs rightPno's cells into leftPno if they fit. The
// left page's new content is covered by the parent's merge record (the
// parent still holds both entries when the record is stamped, so replay
// re-derives the same absorption); only the next leaf's back pointer
// needs its own range record.
func (t *Tree) mergeChildren(sys *pager.Op, leftPno, rightPno uint64) (bool, error) {
	merged := false
	err := t.pg.With(leftPno, func(lpg *pager.Page) error {
		return t.pg.With(rightPno, func(rpg *pager.Page) error {
			ln, rn := nodeRef{lpg.Data()}, nodeRef{rpg.Data()}
			if ln.typ() != rn.typ() {
				return fmt.Errorf("%w: merge type mismatch", ErrCorrupt)
			}
			capacity, next := t.internalCap(), uint64(0)
			if ln.typ() == pageLeaf {
				capacity, next = t.leafCap(), rn.next()
			}
			base, rcnt := ln.ncells(), rn.ncells()
			if base+rcnt > capacity {
				return nil
			}
			absorb := func() {
				copy(cellBytes(ln, base, base+rcnt), cellBytes(rn, 0, rcnt))
				ln.setNCells(base + rcnt)
				if ln.typ() == pageLeaf {
					ln.setNext(next)
				}
				t.pg.MarkDirty(lpg)
				merged = true
			}
			if next == 0 {
				absorb()
				return nil
			}
			// Pin the next leaf BEFORE mutating anything: every fallible step
			// must come first, so an I/O error aborts the merge with the cache
			// untouched — never with the left node absorbed but the parent (and
			// the merge record) still describing two children.
			return t.pg.With(next, func(npg *pager.Page) error {
				absorb()
				nodeRef{npg.Data()}.setPrev(leftPno)
				t.recRange(npg, sys, offPtrB, xu64(leftPno))
				return nil
			})
		})
	})
	return merged, err
}

func (t *Tree) freePage(op *pager.Op, pno uint64) error {
	if err := t.pg.Invalidate(pno); err != nil {
		return err
	}
	return t.space.Free(op, pno, 1)
}

// smoOp picks the capture a split is logged in: a system transaction of
// its own, redone whatever becomes of the mutating operation — unless
// that operation created this tree. Then nothing but the operation's own
// records reaches the tree, and its rollback destroys the tree by walking
// it: an always-redone split would have allocated pages nothing points at
// once those records are dropped, or pages the walk frees with no
// allocation in the log (btree.Tree.smoOp has the long form).
func (t *Tree) smoOp() *pager.Op {
	if t.creator != 0 && t.curOp.ID() == t.creator {
		return t.curOp
	}
	return t.curOp.NewSys()
}

// inverts reports whether an edit by op must stage its inverse: not in a
// tree op itself created, whose rollback destroys the tree whole.
func (t *Tree) inverts(op *pager.Op) bool {
	return op.UndoEnabled() && (t.creator == 0 || op.ID() != t.creator)
}

// setLeafCellLen updates the Len of one cell and fixes counts along path.
func (t *Tree) setLeafCellLen(path []pathElem, leafPno uint64, idx int, newLen uint32) error {
	var delta int64
	err := t.pg.With(leafPno, func(pg *pager.Page) error {
		n := nodeRef{pg.Data()}
		e := n.leafCell(idx)
		delta = int64(newLen) - int64(e.Len)
		e.Len = newLen
		n.setLeafCell(idx, e)
		t.rec(pg, t.curOp, encXop(xopLeafSet, xu16(idx), encCell(e)))
		return nil
	})
	if err != nil {
		return err
	}
	return t.bumpCounts(path, delta)
}
