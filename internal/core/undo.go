package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/osd"
	"repro/internal/pager"
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
// commit. What the rolled-back mutations deferred to their commit (a
// destroyed tree's cache teardown) is dropped; what the compensations
// defer runs after theirs. When an inverse fails mid-rollback it degrades
// to committing the state as it stands: self-consistent partial state,
// page-atomic in the log, with the deferrals of the mutations that stand.
//
// abortMu is held across the inverses *and* the commit: rollbacks
// serialize, so a dependency flush never catches a rollback between its
// compensations and its commit (flushed CLRs without their commit would
// double-apply non-idempotent inverses after a crash — see
// pager.flushOpChunk).
func (v *Volume) abortOp(op *pager.Op) error {
	v.abortMu.Lock()
	defer v.abortMu.Unlock()
	op.Rollback(func(b []byte) error {
		u, err := undo.Decode(b)
		if err == nil {
			err = v.applyUndo(op, u)
		}
		return err
	})
	if err := v.commitOp(op); err != nil {
		return err
	}
	return v.runDeferred(op)
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
		if err == nil {
			err = v.runDeferred(ops[i])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// applyUndo executes one decoded inverse through the live structure
// APIs, which stage the compensation's redo records into op. Inverses
// address structures logically (btree header page or OID, key, byte
// offset), so execution is correct regardless of how rebalances or
// steal moved the physical bytes since capture. A key already gone, or
// an object a neighbour deleted since, is tolerated.
func (v *Volume) applyUndo(op *pager.Op, u undo.Op) error {
	if int(u.Code) >= len(undoOps) || undoOps[u.Code] == nil {
		return fmt.Errorf("core: unknown undo opcode %d", u.Code)
	}
	return undoOps[u.Code](v, op, u)
}

// undoOps is the undo vocabulary's execution, indexed by opcode: the one
// place an inverse's effect is defined. A retired opcode has no entry.
var undoOps = [undo.OpCount]func(v *Volume, op *pager.Op, u undo.Op) error{
	undo.OpKeyPut: func(v *Volume, op *pager.Op, u undo.Op) error {
		tr, err := v.treeByHeader(u.Hdr)
		if err != nil {
			return err
		}
		return tr.PutOp(op, u.Key, u.Data)
	},
	undo.OpKeyDel: func(v *Volume, op *pager.Op, u undo.Op) error {
		tr, err := v.treeByHeader(u.Hdr)
		if err != nil {
			return err
		}
		if err := tr.DeleteOp(op, u.Key); err != nil && !errors.Is(err, btree.ErrNotFound) {
			return err
		}
		return nil
	},
	undo.OpExtWrite: onObject(func(obj *osd.Object, op *pager.Op, u undo.Op) error {
		return obj.WriteAtDeferred(op, u.Data, u.Off)
	}),
	undo.OpExtIns: onObject(func(obj *osd.Object, op *pager.Op, u undo.Op) error {
		return obj.InsertAtDeferred(op, u.Off, u.Data)
	}),
	undo.OpExtDel: onObject(func(obj *osd.Object, op *pager.Op, u undo.Op) error {
		return obj.TruncateRangeDeferred(op, u.Off, u.N)
	}),
	undo.OpReclaim: func(v *Volume, op *pager.Op, u undo.Op) error {
		return pager.NewSpace(v.pg, v.ba).Reclaim(op, u.Runs)
	},
	undo.OpBtreeDrop: func(v *Volume, op *pager.Op, u undo.Op) error {
		tr, err := btree.Open(v.pg, v.ba, u.Hdr)
		if err != nil {
			return err
		}
		return tr.Drop(op)
	},
	undo.OpExtentDrop: func(v *Volume, op *pager.Op, u undo.Op) error {
		return v.OSD.DestroyTree(op, osd.OID(u.Hdr))
	},
	undo.OpFulltext: func(v *Volume, op *pager.Op, _ undo.Op) error { return v.ft.Inner().Undo(op) },
	undo.OpMetaPut: func(v *Volume, op *pager.Op, u undo.Op) error {
		return v.OSD.RestoreMeta(op, osd.OID(u.Hdr), u.Data)
	},
}

// onObject is the entry of an inverse that runs on object u.Hdr, opened
// for it; an object a neighbour deleted since has nothing to undo.
func onObject(fn func(obj *osd.Object, op *pager.Op, u undo.Op) error) func(*Volume, *pager.Op, undo.Op) error {
	return func(v *Volume, op *pager.Op, u undo.Op) error {
		obj, err := v.OSD.OpenObject(osd.OID(u.Hdr))
		if errors.Is(err, osd.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		defer obj.Close()
		return fn(obj, op, u)
	}
}

// treeByHeader resolves a btree header page to the volume's live tree —
// the catalog, reverse index, object table, image index, KV index
// shards, or a fulltext segment tree.
func (v *Volume) treeByHeader(hdr uint64) (*btree.Tree, error) {
	for _, nt := range v.allTrees() {
		if nt.tree.HeaderPage() == hdr {
			return nt.tree, nil
		}
	}
	return nil, fmt.Errorf("%w: no btree with header page %d", ErrNotFound, hdr)
}
