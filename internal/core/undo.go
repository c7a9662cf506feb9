package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/osd"
	"repro/internal/pager"
	"repro/internal/redo"
	"repro/internal/undo"
	"repro/internal/wal"
)

// This file is the volume's undo executor: the piece of ARIES that takes
// the logical inverses captured by the structure layers (package undo)
// and runs them back through the live APIs — at runtime when an
// operation bracket fails (abortOp), and at recovery for loser
// transactions whose chunk-flushed records reached the log without a
// commit (undoLosers). Both paths execute inverses newest-first with the
// op in CLR mode, so the rollback itself emits ordinary redo records
// flagged as compensations: they replay like history and are never
// themselves undone.

// abortOp rolls one failed operation back. The op's captured inverses
// run newest-first through the live structure APIs, and the original
// records plus the compensations commit as one transaction — a net
// no-op under replay, with the op's chunk chain (if any) resolved by the
// commit. When undo is off, or an inverse fails mid-rollback, it
// degrades to committing the state as it stands — the pre-undo
// behaviour: self-consistent partial state, page-atomic in the log.
//
// abortMu is held across the inverses *and* the commit: rollbacks
// serialize, so a dependency flush never catches a rollback between its
// compensations and its commit (flushed CLRs without their commit would
// double-apply non-idempotent inverses after a crash — see
// pager.flushOpChunk).
func (v *Volume) abortOp(op *pager.Op) error {
	bodies := op.UndoBodies()
	if len(bodies) == 0 {
		return v.commitOp(op)
	}
	v.abortMu.Lock()
	defer v.abortMu.Unlock()
	op.BeginCLR()
	for _, b := range bodies {
		u, err := undo.Decode(b)
		if err == nil {
			err = v.applyUndo(op, u)
		}
		if err != nil {
			// An inverse failed: stop undoing and commit what exists.
			// Original records plus the compensations so far describe
			// exactly the cache state — not fully rolled back, but
			// replay-consistent.
			return v.commitOp(op)
		}
	}
	return v.commitOp(op)
}

// undoLosers is recovery's undo pass. Repeat-history replay has already
// brought every page to its crash state, loser edits included; here each
// loser chain's inverses execute newest-first — globally across chains,
// in descending LSN order, since operations from different chains may
// have interleaved on the same structures — and each chain commits its
// compensations naming the chain's tail. That resolves the chain: if a
// crash lands mid-undo, the un-committed compensations vanish (CLR-mode
// ops are never chunk-flushed) and the next recovery re-runs the undo
// from scratch against an identical replayed state.
func (v *Volume) undoLosers(chains []wal.LoserChain) error {
	v.abortMu.Lock()
	defer v.abortMu.Unlock()
	type step struct {
		lsn   uint64
		chain int
		body  []byte
	}
	var steps []step
	ops := make([]*pager.Op, len(chains))
	for i := range chains {
		ops[i] = v.pg.NewOp(sysAppender{v})
		ops[i].BeginCLR()
		for _, r := range chains[i].Undos {
			if len(r.Data) < 8 {
				continue
			}
			steps = append(steps, step{r.LSN, i, r.Data[8:]})
		}
	}
	sort.Slice(steps, func(a, b int) bool { return steps[a].lsn > steps[b].lsn })
	for _, st := range steps {
		u, err := undo.Decode(st.body)
		if err == nil {
			err = v.applyUndo(ops[st.chain], u)
		}
		if err != nil {
			return fmt.Errorf("core: recovery undo (chain tail %d): %w", chains[st.chain].Tail, err)
		}
	}
	for i := range chains {
		err := v.commitOpChain(ops[i], chains[i].Tail)
		if errors.Is(err, wal.ErrFull) {
			// The log cannot take the compensations; the checkpoint that
			// follows undoLosers flushes the undone state home and resets
			// the log, which resolves every chain by emptiness.
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// applyUndo executes one decoded inverse through the live structure
// APIs, which stage the compensation's redo records into op. Inverses
// address structures logically (tree header page, key, byte offset), so
// execution is correct regardless of how rebalances or steal moved the
// physical bytes since capture. Already-gone targets are tolerated —
// a later (older-LSN) inverse may destroy the object or row an earlier
// one restored into, and re-running an interrupted undo must not trip on
// the parts that completed.
func (v *Volume) applyUndo(op *pager.Op, u undo.Op) error {
	switch u.Code {
	case undo.OpKeyPut:
		tr, err := v.treeByHeader(u.Hdr)
		if err != nil {
			return err
		}
		return tr.PutOp(op, u.Key, u.Data)
	case undo.OpKeyDel:
		tr, err := v.treeByHeader(u.Hdr)
		if err != nil {
			return err
		}
		if err := tr.DeleteOp(op, u.Key); err != nil && !errors.Is(err, btree.ErrNotFound) {
			return err
		}
		return nil
	case undo.OpExtWrite, undo.OpExtIns, undo.OpExtDel:
		obj, err := v.objectByHeader(u.Hdr)
		if err != nil || obj == nil {
			return err
		}
		defer obj.Close()
		switch u.Code {
		case undo.OpExtWrite:
			return obj.WriteAtDeferred(op, u.Data, u.Off)
		case undo.OpExtIns:
			return obj.InsertAtDeferred(op, u.Off, u.Data)
		default:
			return obj.TruncateRangeDeferred(op, u.Off, u.N)
		}
	case undo.OpRange:
		pg, err := v.pg.Acquire(u.Page)
		if err != nil {
			return err
		}
		d := pg.Data()
		if int(u.Off)+len(u.Data) > len(d) {
			v.pg.Release(pg)
			return fmt.Errorf("core: undo range [%d,%d) outside page %d", u.Off, int(u.Off)+len(u.Data), u.Page)
		}
		copy(d[u.Off:], u.Data)
		v.pg.MarkDirtyRec(pg, op, redo.KindRange, redo.EncodeRange(int(u.Off), u.Data))
		v.pg.Release(pg)
		return nil
	case undo.OpObjDestroy:
		err := v.OSD.DeleteObjectDeferred(op, osd.OID(u.OID))
		if errors.Is(err, osd.ErrNotFound) {
			return nil
		}
		return err
	default:
		return fmt.Errorf("core: unknown undo opcode %d", u.Code)
	}
}

// treeByHeader resolves a btree header page to the volume's live tree —
// the catalog, reverse index, object table, image index, KV index
// shards, or a fulltext segment tree.
func (v *Volume) treeByHeader(hdr uint64) (*btree.Tree, error) {
	for _, tr := range v.allTrees() {
		if tr.HeaderPage() == hdr {
			return tr, nil
		}
	}
	return nil, fmt.Errorf("%w: no btree with header page %d", ErrNotFound, hdr)
}

// objectByHeader opens the object whose extent tree is rooted at hdr.
// Returns (nil, nil) when no such object exists any more — the rollback
// order destroys created objects after undoing the writes inside them,
// and an interrupted, re-run undo may find the destroy already done.
func (v *Volume) objectByHeader(hdr uint64) (*osd.Object, error) {
	oid, err := v.OSD.LookupByHeader(hdr)
	if errors.Is(err, osd.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	obj, err := v.OSD.OpenObject(oid)
	if errors.Is(err, osd.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return obj, nil
}
