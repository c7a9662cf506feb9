package osd

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/btree"
	"repro/internal/extent"
	"repro/internal/pager"
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

	// wmu serializes mutators on this object (handles to one OID share
	// state, so this is per-OID). The extent tree's own lock already
	// serializes tree mutations; wmu additionally orders each mutation
	// with its object-table metadata refresh — without it, two writers
	// could land their meta puts in the opposite order of their tree
	// edits and persist a stale size against the newer tree.
	wmu sync.Mutex
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

func (o *Object) writeAt(op *pager.Op, p []byte, off uint64) error {
	o.wmu.Lock()
	defer o.wmu.Unlock()
	err := o.ext.WriteAtOp(op, p, off)
	if err == nil {
		o.s.stats.writes.Add(1)
	}
	return o.finishMutation(op, err)
}

// finishMutation refreshes the object-table metadata even when the
// extent mutation failed part-way: the commit bracket appends the
// staged records regardless (rollback, when it runs, is a separate
// CLR pass over the op's captured inverses), so the partially applied
// tree must be matched by the size the object table records —
// otherwise a crash right after would recover a volume where fsck
// finds the table and the tree disagreeing.
func (o *Object) finishMutation(op *pager.Op, err error) error {
	if merr := o.refreshMeta(op); err == nil {
		err = merr
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
	o.wmu.Lock()
	defer o.wmu.Unlock()
	size, err := o.ext.AppendOp(op, p)
	if err == nil {
		o.s.stats.writes.Add(1)
	}
	return size, o.finishMutation(op, err)
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
	o.wmu.Lock()
	defer o.wmu.Unlock()
	err := o.ext.InsertAtOp(op, off, p)
	if err == nil {
		o.s.stats.inserts.Add(1)
	}
	return o.finishMutation(op, err)
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
	o.wmu.Lock()
	defer o.wmu.Unlock()
	err := o.ext.DeleteRangeOp(op, off, length)
	if err == nil {
		o.s.stats.deleteRanges.Add(1)
	}
	return o.finishMutation(op, err)
}

// Truncate sets the object's size (POSIX-style single-argument form).
func (o *Object) Truncate(size uint64) error {
	return o.s.withOp(func(op *pager.Op) error {
		o.wmu.Lock()
		defer o.wmu.Unlock()
		return o.finishMutation(op, o.ext.TruncateOp(op, size))
	})
}

// refreshMeta updates size/mtime in the object table (no commit; the
// enclosing operation bracket owns that).
func (o *Object) refreshMeta(op *pager.Op) error {
	size := o.ext.Size()
	now := o.s.now()
	return o.s.updateMetaNoCommit(op, o.oid, func(m *Meta) {
		m.Size = size
		m.Mtime = now
	})
}

// updateMetaNoCommit is updateMeta without the commit bracket, for
// callers that batch the commit themselves.
func (s *Store) updateMetaNoCommit(op *pager.Op, oid OID, f func(*Meta)) error {
	v, err := s.meta.Get(oidKey(oid))
	if errors.Is(err, btree.ErrNotFound) {
		return fmt.Errorf("%w: oid %d", ErrNotFound, oid)
	}
	if err != nil {
		return err
	}
	m, err := decodeMeta(v)
	if err != nil {
		return err
	}
	f(&m)
	return s.meta.PutOp(op, oidKey(oid), encodeMeta(&m))
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
