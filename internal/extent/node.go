package extent

import (
	"fmt"
	"sync/atomic"

	"repro/internal/pager"
	"repro/internal/redo"
)

// insertCellAtOff inserts extent e at the extent boundary at byte offset
// off (off must lie on a boundary, or equal the current content total
// for appends), maintaining all subtree byte counts. Full nodes on the
// way are split first — sum-preserving, in the operation's own records —
// and the descent retried, so the insert itself is always a plain record
// into a leaf with room. Callers hold the tree lock.
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
		err = t.with(leafPno, func(n nodeRef, pg *pager.Page) error {
			if n.typ() != pageLeaf {
				return fmt.Errorf("%w: insert into non-leaf %d", ErrCorrupt, leafPno)
			}
			idx, eOff := n.findInLeaf(rem)
			if eOff != 0 {
				return fmt.Errorf("%w: insert target %d not on boundary", ErrCorrupt, off)
			}
			if inserted = n.ncells() < t.capOf(leafPno, pageLeaf); inserted {
				n.insertLeafCell(idx, e)
				t.rec(pg, t.curOp, func() []byte { return redo.EncodeOp(xopLeafIns, redo.U16(idx), encCell(e)) })
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
		if _, _, _, err = t.splitNode(path, leafPno); err != nil {
			return false, err
		}
	}
}

// splitNode splits the full node pno around its cell midpoint and
// records the new sibling in the parent, splitting full parents first,
// recursively; a full root instead pushes its cells down a level. The
// split is sum-preserving: cells only redistribute between the two
// halves and the parent's entries are rewritten to the exact partial
// sums, so no byte count above the split level changes. Its page records
// name the halves but carry no sums: replay derives each from the half as
// replay has built it. Returns the two halves and the split index (for
// the root: the child, no right half, and R).
//
// A split rides in the operation's own records, never in a system
// transaction: when it reaches the root, the anchor takes the root's new
// cells — absolute sums and, for a push-down, the cells the child page
// is written with — which may count records of this operation and of the
// open ones it built on. Those are in the log before this operation's
// are (pager.After), so the split can never replay without them.
func (t *Tree) splitNode(path []pathElem, pno uint64) (uint64, uint64, int, error) {
	op := t.curOp
	if pno == rootNo {
		// The root's cells move into a fresh page with room to spare,
		// which needs no split: every index stays left of "mid" R.
		child, err := t.pushDown()
		return child, 0, R, err
	}
	rightPno, err := t.space.Alloc(op, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	var mid int
	var oldNext, leftSum, rightSum uint64
	err = t.pg.With(pno, func(pg *pager.Page) error {
		return t.pg.WithZero(rightPno, func(rpg *pager.Page) error {
			n := nodeRef{pg.Data()}
			rn := initNode(rpg.Data(), n.typ(), n.owner())
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
			}
			leftSum, rightSum = n.sum(), rn.sum()
			t.rec(pg, op, func() []byte { return redo.EncodeOp(xopSplit, redo.U64(rightPno), redo.U16(mid)) })
			// The right page is fresh and fully determined by the split
			// record; it needs no record (or base image) of its own.
			t.pg.MarkDirty(rpg)
			return nil
		})
	})
	if err != nil {
		_ = t.freePage(op, rightPno) // never joined the tree
		return 0, 0, 0, err
	}
	if oldNext != 0 {
		err := t.pg.With(oldNext, func(npg *pager.Page) error {
			nodeRef{npg.Data()}.setPrev(rightPno)
			t.recRange(npg, op, offPtrB, redo.U64(rightPno))
			return nil
		})
		if err != nil {
			return pno, rightPno, mid, err
		}
	}
	t.addStat(func(s *Stats) { s.Splits++ })

	// Record the new sibling in the parent, splitting it first if full.
	pe := path[len(path)-1]
	parentPno, pidx := pe.pno, pe.idx
	link := func(pn nodeRef, ppg *pager.Page) error {
		if pidx >= pn.ncells() || pn.childCell(pidx).child != pno {
			return fmt.Errorf("%w: parent cell %d does not reach split child %d", ErrCorrupt, pidx, pno)
		}
		pn.setChildCell(pidx, childEntry{pno, leftSum})
		t.rec(ppg, op, func() []byte { return redo.EncodeOp(xopChildSet, redo.U16(pidx), redo.U64(pno)) })
		pn.insertChildCell(pidx+1, childEntry{rightPno, rightSum})
		t.rec(ppg, op, func() []byte { return redo.EncodeOp(xopChildIns, redo.U16(pidx+1), redo.U64(rightPno)) })
		return nil
	}
	full := false
	err = t.with(parentPno, func(pn nodeRef, ppg *pager.Page) error {
		if full = pn.ncells() >= t.capOf(parentPno, pageInternal); full {
			return nil
		}
		return link(pn, ppg)
	})
	if err == nil && full {
		var pl, pr uint64
		var pm int
		if pl, pr, pm, err = t.splitNode(path[:len(path)-1], parentPno); err == nil {
			parentPno = pl
			if pidx >= pm {
				parentPno, pidx = pr, pidx-pm
			}
			err = t.with(parentPno, link)
		}
	}
	return pno, rightPno, mid, err
}

// pushDown moves the full root's cells into a fresh child page and leaves
// the root an internal node whose one entry is that child: the tree grows
// a level. The child is written by one record holding its cells, as they
// stand.
func (t *Tree) pushDown() (uint64, error) {
	op := t.curOp
	child, err := t.space.Alloc(op, 1)
	if err != nil {
		return 0, err
	}
	root := nodeRef{t.rootBuf}
	err = t.pg.WithZero(child, func(cpg *pager.Page) error {
		cn := initNode(cpg.Data(), root.typ(), t.owner)
		cnt := root.ncells()
		copy(cellBytes(cn, 0, cnt), cellBytes(root, 0, cnt))
		cn.setNCells(cnt)
		t.rec(cpg, op, func() []byte {
			return redo.EncodeOp(xopInit, []byte{cn.typ()}, redo.U64(t.owner), cellBytes(cn, 0, cnt))
		})
		root.data[offType] = pageInternal
		root.setChildCell(0, childEntry{child, cn.sum()})
		root.setNCells(1)
		t.rootDirty = true
		return nil
	})
	if err != nil {
		_ = t.freePage(op, child) // never joined the tree
		return 0, err
	}
	t.height++
	return child, nil
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
	err := t.with(leafPno, func(n nodeRef, pg *pager.Page) error {
		e = n.leafCell(idx)
		n.removeLeafCell(idx)
		t.rec(pg, t.curOp, func() []byte { return redo.EncodeOp(xopLeafDel, redo.U16(idx)) })
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
				t.curOp.Defer(func(sys *pager.Op) error {
					if t.anchor == nil {
						return t.RebalanceAt(sys, cell.Load())
					}
					return t.anchor.Rebalance(sys, cell.Load())
				})
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
//
// A merge under the root hands the anchor absolute cells in sys, which
// is redone whatever else the log keeps; so the rebalance yields, and
// does nothing, while an open operation has built on the tree or its
// anchor (pager Claimed): the tree in cache, or the anchor, may then hold
// edits the log does not. Every such operation claims the tree under the
// tree lock (begin, Claim, Destroy), and the lock is held from the check
// to the anchor's put, so none can slip in between. The tree must be the
// one open on its owner (Anchor.Rebalance): another tree on the same
// owner would hold a stale root and a lock of its own.
func (t *Tree) RebalanceAt(sys *pager.Op, off uint64) (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer func() {
		if t.rootDirty && t.anchor != nil && err == nil {
			err = t.anchor.Keep(sys, t.Root(), false)
		}
		t.rootDirty = false
	}()
	if t.pg.Claimed(Key(t.owner)) {
		return nil
	}
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
		err = t.with(leafPno, func(n nodeRef, _ *pager.Page) error {
			underfull = n.ncells() < t.leafCap()/4
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
// reporting whether a merge happened at this level. The merge is logged
// as an absorb record on the left node, the parent's entry fixups and
// chain-pointer range records, and a root left with one child that fits
// pulls it up, all in sys (nil = unlogged).
func (t *Tree) maybeMerge(sys *pager.Op, path []pathElem, nodePno uint64) (bool, error) {
	pe := path[len(path)-1]
	var merged, underfull bool
	var right uint64
	err := t.with(pe.pno, func(pn nodeRef, ppg *pager.Page) error {
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
			t.rec(ppg, sys, func() []byte { return redo.EncodeOp(xopChildSet, redo.U16(li), redo.U64(left.child)) })
			pn.removeChildCell(li + 1)
			t.rec(ppg, sys, func() []byte { return redo.EncodeOp(xopChildDel, redo.U16(li+1)) })
			right = rc.child
			underfull = pn.ncells() < t.internalCap()/4
			return nil
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	if merged {
		t.addStat(func(s *Stats) { s.Merges++ })
		if err := t.freePage(sys, right); err != nil {
			return true, err
		}
	}
	if pe.pno == rootNo {
		return merged, t.maybePullUp(sys)
	}
	if merged && underfull && len(path) > 1 {
		_, err := t.maybeMerge(sys, path[:len(path)-1], pe.pno)
		return true, err
	}
	return merged, nil
}

// mergeChildren absorbs rightPno's cells into leftPno if they fit, with
// one record on the left page naming the right; replay re-derives the
// absorption from the right page as replay has built it. The next leaf's
// back pointer gets its own range record.
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
				t.rec(lpg, sys, func() []byte { return redo.EncodeOp(xopAbsorb, redo.U64(rightPno)) })
				merged = true
			}
			if next == 0 {
				absorb()
				return nil
			}
			// Pin the next leaf BEFORE mutating anything: every fallible step
			// must come first, so an I/O error aborts the merge with the cache
			// untouched — never with the left node absorbed but the parent
			// still describing two children.
			return t.pg.With(next, func(npg *pager.Page) error {
				absorb()
				nodeRef{npg.Data()}.setPrev(leftPno)
				t.recRange(npg, sys, offPtrB, redo.U64(leftPno))
				return nil
			})
		})
	})
	return merged, err
}

// maybePullUp moves the cells of an internal root's only child into the
// root when they fit, and frees the child: the tree loses a level.
func (t *Tree) maybePullUp(sys *pager.Op) error {
	root := nodeRef{t.rootBuf}
	if root.typ() != pageInternal || root.ncells() != 1 {
		return nil
	}
	child := root.childCell(0).child
	pulled := false
	err := t.pg.With(child, func(cpg *pager.Page) error {
		c := nodeRef{cpg.Data()}
		cnt := c.ncells()
		if pulled = cnt <= R; pulled {
			root.data[offType] = c.typ()
			copy(cellBytes(root, 0, cnt), cellBytes(c, 0, cnt))
			root.setNCells(cnt)
			t.rootDirty = true
		}
		return nil
	})
	if err != nil || !pulled {
		return err
	}
	t.height--
	return t.freePage(sys, child)
}

func (t *Tree) freePage(op *pager.Op, pno uint64) error {
	if err := t.pg.Invalidate(pno); err != nil {
		return err
	}
	return t.space.Free(op, pno, 1)
}

// inverts reports whether an edit by op must stage its inverse: not in a
// tree op itself created, whose rollback destroys the tree whole.
func (t *Tree) inverts(op *pager.Op) bool {
	return op.UndoEnabled() && (t.creator == 0 || op.ID() != t.creator)
}

// setLeafCellLen updates the Len of one cell and fixes counts along path.
func (t *Tree) setLeafCellLen(path []pathElem, leafPno uint64, idx int, newLen uint32) error {
	var delta int64
	err := t.with(leafPno, func(n nodeRef, pg *pager.Page) error {
		e := n.leafCell(idx)
		delta = int64(newLen) - int64(e.Len)
		e.Len = newLen
		n.setLeafCell(idx, e)
		t.rec(pg, t.curOp, func() []byte { return redo.EncodeOp(xopLeafSet, redo.U16(idx), encCell(e)) })
		return nil
	})
	if err != nil {
		return err
	}
	return t.bumpCounts(path, delta)
}
