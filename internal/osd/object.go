package osd

import (
	"errors"
	"sync"

	"repro/internal/extent"
	"repro/internal/pager"
	"repro/internal/undo"
)

// Object is an open handle to a byte-addressable storage object. The
// access interface mirrors the paper's: read and write are
// POSIX-compatible, and insert and truncate(offset, length) are the two
// extensions the extent representation makes cheap.
//
// Handles to the same OID share state; Close releases the handle.
type Object struct {
	s   *Store
	oid OID
	ext *extent.Tree

	mu     sync.Mutex
	refs   int
	closed bool
}

// rowAnchor keeps object oid's extent root in its row (extent.Anchor).
// The tree hands it the root under its own lock at the end of each
// mutating call, so rows land in the order of the edits they follow; an
// edit also stamps the mtime, so a mutation costs one put. The put stages
// no inverse: the tree's own inverses take the edit back and rewrite the
// row from it.
type rowAnchor struct {
	s   *Store
	oid OID
}

func (a rowAnchor) Keep(op *pager.Op, root extent.Root, edit bool) error {
	var now int64
	if edit {
		now = a.s.now()
	}
	return a.s.putRow(op, a.oid, func(m *Meta) {
		m.Root = root
		if edit {
			m.Mtime = now
		}
	})
}

// Rebalance runs a deferred rebalance on the tree open on the object now,
// opening it if no handle is: the handle whose mutation deferred it may
// be closed by now. An object deleted since has nothing to rebalance.
func (a rowAnchor) Rebalance(sys *pager.Op, off uint64) error {
	obj, err := a.s.OpenObject(a.oid)
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	defer obj.Close()
	return obj.ext.RebalanceAt(sys, off)
}

// OID returns the object's identifier.
func (o *Object) OID() OID { return o.oid }

// Size returns the object's current byte size.
func (o *Object) Size() uint64 { return o.ext.Size() }

// Stat returns the object's metadata.
func (o *Object) Stat() (Meta, error) { return o.s.Stat(o.oid) }

// ExtentCount reports how many extents back the object.
func (o *Object) ExtentCount() uint64 { return o.ext.ExtentCount() }

// ExtentTree exposes the underlying tree for checking and experiments.
func (o *Object) ExtentTree() *extent.Tree { return o.ext }

// ReadAt reads len(p) bytes at offset off (io.ReaderAt semantics: returns
// io.EOF with a short count at end of object).
func (o *Object) ReadAt(p []byte, off uint64) (int, error) {
	n, err := o.ext.ReadAt(p, off)
	o.s.stats.reads.Add(1)
	return n, err
}

// WriteAt writes p at offset off, growing the object as needed; writes
// past the end create holes (sparse objects).
func (o *Object) WriteAt(p []byte, off uint64) error {
	return o.s.withOp(func(op *pager.Op) error { return o.writeAt(op, p, off) })
}

// WriteAtDeferred is WriteAt without the per-operation commit, for
// callers composing one transaction from several mutations (core.Batch).
func (o *Object) WriteAtDeferred(op *pager.Op, p []byte, off uint64) error {
	return o.writeAt(op, p, off)
}

// writeAt and the other mutators leave the row to the tree's anchor,
// which rewrites it even when the mutation failed part-way: the commit
// bracket appends the staged records regardless (rollback, when it runs,
// is a separate CLR pass over the op's captured inverses), so the row
// must name the partially applied tree.
func (o *Object) writeAt(op *pager.Op, p []byte, off uint64) error {
	err := o.ext.WriteAtOp(op, p, off)
	if err == nil {
		o.s.stats.writes.Add(1)
	}
	return err
}

// Append writes p at the current end of the object.
func (o *Object) Append(p []byte) error {
	return o.s.withOp(func(op *pager.Op) error {
		_, err := o.append(op, p)
		return err
	})
}

// AppendDeferred is Append without the per-operation commit (core.Batch).
// It returns the object's size after the append.
func (o *Object) AppendDeferred(op *pager.Op, p []byte) (uint64, error) {
	return o.append(op, p)
}

// append resolves the end offset and writes atomically (extent.Tree
// AppendOp holds the tree lock across both), so concurrent appends to
// one OID — e.g. two ingest workers batching the same hot object —
// serialize instead of computing the same end offset and losing one
// acked write.
func (o *Object) append(op *pager.Op, p []byte) (uint64, error) {
	size, err := o.ext.AppendOp(op, p)
	if err == nil {
		o.s.stats.writes.Add(1)
	}
	return size, err
}

// InsertAt inserts p at offset off, shifting later bytes up — the paper's
// insert call ("arguments identical to the write call, but instead of
// overwriting bytes ... it inserts those bytes, growing the file").
func (o *Object) InsertAt(off uint64, p []byte) error {
	return o.s.withOp(func(op *pager.Op) error { return o.insertAt(op, off, p) })
}

// InsertAtDeferred is InsertAt without the per-operation commit.
func (o *Object) InsertAtDeferred(op *pager.Op, off uint64, p []byte) error {
	return o.insertAt(op, off, p)
}

func (o *Object) insertAt(op *pager.Op, off uint64, p []byte) error {
	err := o.ext.InsertAtOp(op, off, p)
	if err == nil {
		o.s.stats.inserts.Add(1)
	}
	return err
}

// TruncateRange removes length bytes at offset off, shifting later bytes
// down — the paper's two-off_t truncate ("an offset and length, indicating
// exactly which bytes to remove from the file").
func (o *Object) TruncateRange(off, length uint64) error {
	return o.s.withOp(func(op *pager.Op) error { return o.truncateRange(op, off, length) })
}

// TruncateRangeDeferred is TruncateRange without the per-operation commit.
func (o *Object) TruncateRangeDeferred(op *pager.Op, off, length uint64) error {
	return o.truncateRange(op, off, length)
}

func (o *Object) truncateRange(op *pager.Op, off, length uint64) error {
	err := o.ext.DeleteRangeOp(op, off, length)
	if err == nil {
		o.s.stats.deleteRanges.Add(1)
	}
	return err
}

// Truncate sets the object's size (POSIX-style single-argument form).
func (o *Object) Truncate(size uint64) error {
	return o.s.withOp(func(op *pager.Op) error { return o.ext.TruncateOp(op, size) })
}

// updateMetaNoCommit is updateMeta without the commit bracket, for
// callers that batch the commit themselves. Its inverse restores the
// fields f changed, never the root (undo.MetaPut).
func (s *Store) updateMetaNoCommit(op *pager.Op, oid OID, f func(*Meta)) error {
	if err := s.claimRow(op, oid); err != nil {
		return err
	}
	return s.putRow(op, oid, func(m *Meta) {
		if op.UndoEnabled() {
			old := *m
			old.Root = extent.Root{}
			op.StageUndo(undo.MetaPut(uint64(oid), encodeMeta(&old)))
		}
		f(m)
	})
}

// claimRow claims object oid's tree for op, which is about to write the
// object's row and not its tree, under the lock of the tree open on the
// object (extent.Tree.Claim): a deferred rebalance, which puts the row in
// a system transaction, then never reads op's uncommitted fields.
func (s *Store) claimRow(op *pager.Op, oid OID) error {
	obj, err := s.OpenObject(oid)
	if err != nil {
		return err
	}
	obj.ext.Claim(op)
	return obj.Close()
}

// putRow rewrites object oid's row through f in op, in one atomic
// section, staging no inverse of the put itself. op becomes the object's
// last builder (pager.After) under rowMu, right before the row is read,
// so op's commit waits for the records of whichever open operation wrote
// the row op builds on.
func (s *Store) putRow(op *pager.Op, oid OID, f func(*Meta)) error {
	s.rowMu.Lock()
	defer s.rowMu.Unlock()
	op.BeginAtomic()
	defer op.EndAtomic()
	s.pg.After(extent.Key(uint64(oid)), op)
	m, err := s.Stat(oid)
	if err != nil {
		return err
	}
	f(&m)
	return s.meta.PutOpNoInverse(op, oidKey(oid), encodeMeta(&m))
}

// Close releases the handle; the last close detaches the shared state.
func (o *Object) Close() error {
	o.s.mu.Lock()
	defer o.s.mu.Unlock()
	if o.closed {
		return nil
	}
	o.refs--
	if o.refs <= 0 {
		o.closed = true
		delete(o.s.open, o.oid)
	}
	return nil
}
