// Package osd implements hFAD's object-based storage device layer: "the
// abstraction of a uniquely identified container of bytes", where each
// container carries metadata (security attributes, access and modified
// times, size) and — unlike traditional OSDs — is fully byte-accessible:
// bytes can be read, overwritten, inserted into the middle, and removed
// from the middle.
//
// Objects are backed by counted extent trees (package extent). Object
// metadata lives in a global OID→metadata btree, following the paper's
// implementation sketch ("we use BDB Btrees to map unique object IDs (OID)
// to the meta-data for an object"), and the object's row there also holds
// the root node of its extent tree, as ext4 keeps an extent root in the
// inode: an object of extent.R extents or fewer has no extent page at
// all, and opening it reads none. The root's byte total is the object's
// size. Each mutation rewrites the row once, at its end, with the new root
// and mtime (rowAnchor). The paper also keeps a copy of the metadata
// under a NULL key of the object's own tree ("we use a NULL key value in
// the Btree to store the meta-data associated with an object"); here every
// page below the root carries only the owning OID, written once when the
// page is made, which fsck reads back.
//
// The store does not own its commits: every mutating operation runs
// inside the bracket the volume passes as Options.Begin, which threads
// the operation's redo capture through the mutation and commits it to the
// WAL (or rolls it back) when the mutation returns. A store with no Begin
// hook — a standalone store in tests — mutates unlogged.
package osd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/buddy"
	"repro/internal/extent"
	"repro/internal/pager"
)

// OID uniquely identifies an object.
type OID uint64

// Errors.
var (
	ErrNotFound = errors.New("osd: object not found")
	ErrCorrupt  = errors.New("osd: corrupt metadata")
)

// Mode bits. The OSD itself is data-agnostic; these exist so layered
// naming systems (POSIX) can persist type/permission bits with the object.
const (
	ModeRegular  uint32 = 0o100000
	ModeDir      uint32 = 0o040000
	ModePermMask uint32 = 0o7777
)

// Meta is an object's metadata record.
type Meta struct {
	OID   OID
	Size  uint64 // the root's byte total; the row stores no size of its own
	Mode  uint32
	Owner string // the paper's security attribute / USER tag source
	Atime int64  // unix nanoseconds
	Mtime int64
	Ctime int64
	Root  extent.Root // the root node of the object's extent tree
}

const metaFixedSize = 4 + 8 + 8 + 8 + 2 // + owner bytes + root

// encodeMeta lays a row out as mode, the three times, the owner
// (length-prefixed) and the extent root without its unused cells; the
// OID is the row's key.
func encodeMeta(m *Meta) []byte {
	out := make([]byte, metaFixedSize+len(m.Owner), metaFixedSize+len(m.Owner)+m.Root.Len())
	binary.LittleEndian.PutUint32(out[0:], m.Mode)
	binary.LittleEndian.PutUint64(out[4:], uint64(m.Atime))
	binary.LittleEndian.PutUint64(out[12:], uint64(m.Mtime))
	binary.LittleEndian.PutUint64(out[20:], uint64(m.Ctime))
	binary.LittleEndian.PutUint16(out[28:], uint16(len(m.Owner)))
	copy(out[30:], m.Owner)
	return append(out, m.Root[:m.Root.Len()]...)
}

// decodeMeta reads object oid's row b.
func decodeMeta(oid OID, b []byte) (Meta, error) {
	if len(b) < metaFixedSize {
		return Meta{}, fmt.Errorf("%w: meta record %d bytes", ErrCorrupt, len(b))
	}
	m := Meta{
		OID:   oid,
		Mode:  binary.LittleEndian.Uint32(b[0:]),
		Atime: int64(binary.LittleEndian.Uint64(b[4:])),
		Mtime: int64(binary.LittleEndian.Uint64(b[12:])),
		Ctime: int64(binary.LittleEndian.Uint64(b[20:])),
	}
	end := metaFixedSize + int(binary.LittleEndian.Uint16(b[28:]))
	if end >= len(b) || len(b)-end > len(m.Root) {
		return Meta{}, fmt.Errorf("%w: owner and root do not fill the %d-byte record", ErrCorrupt, len(b))
	}
	m.Owner = string(b[30:end])
	copy(m.Root[:], b[end:])
	if m.Root.Len() != len(b)-end {
		return Meta{}, fmt.Errorf("%w: extent root of %d bytes", ErrCorrupt, len(b)-end)
	}
	m.Size = m.Root.Size()
	return m, nil
}

func oidKey(oid OID) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], uint64(oid))
	return k[:]
}

// seqKey is the NULL key of the object table, holding the OID sequence —
// the same trick the paper uses for per-object metadata.
var seqKey = []byte{}

// Options configures a Store.
type Options struct {
	// Begin brackets every mutating operation: it calls fn with the
	// operation's redo capture (threaded through every page mutation so
	// each structure layer logs exactly this operation's edits), then
	// commits the operation if fn returns nil or rolls it back if fn
	// fails, and returns fn's error or the commit's. It may refuse to
	// call fn at all — the volume is read-only (degraded) — and return
	// why. The volume wires this to physiological redo capture and WAL
	// group commit. Nil runs fn with a nil capture: unlogged.
	Begin func(fn func(*pager.Op) error) error
	// ExtentConfig tunes the per-object extent trees.
	ExtentConfig extent.Config
	// Clock supplies timestamps; nil uses time.Now. Tests inject fakes.
	Clock func() time.Time
}

// Stats is a point-in-time snapshot of store-level operation counters.
type Stats struct {
	Objects      uint64
	Creates      int64
	Deletes      int64
	Reads        int64
	Writes       int64
	Inserts      int64
	DeleteRanges int64
	Commits      int64
}

// counters holds the live operation counters. Every field is an atomic:
// stats are scraped concurrently with the operations that mutate them
// (the hfadd /metrics endpoint reads while writers write), and the hot
// write path should not serialize on a stats mutex.
type counters struct {
	creates      atomic.Int64
	deletes      atomic.Int64
	reads        atomic.Int64
	writes       atomic.Int64
	inserts      atomic.Int64
	deleteRanges atomic.Int64
	commits      atomic.Int64
}

// Store is the OSD: a table of byte-addressable objects.
type Store struct {
	pg   *pager.Pager
	ba   *buddy.Allocator
	opts Options
	meta *btree.Tree

	mu      sync.Mutex
	nextOID OID
	open    map[OID]*Object
	// rowMu serializes every read-modify-write of a row: a mutation's
	// root and mtime, a metadata update, a rollback's restore.
	rowMu sync.Mutex
	// seqMu orders persistSeq's snapshot-and-put: without it, two
	// concurrent creators could persist their snapshots out of order and
	// a stale (smaller) sequence would win, re-issuing OIDs after reopen.
	seqMu sync.Mutex

	stats counters
}

// Create initializes a new store on the volume.
func Create(pg *pager.Pager, ba *buddy.Allocator, opts Options) (*Store, error) {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	mt, err := btree.Create(pg, ba)
	if err != nil {
		return nil, err
	}
	s := &Store{pg: pg, ba: ba, opts: opts, meta: mt, nextOID: 1, open: make(map[OID]*Object)}
	if err := s.persistSeq(nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Open loads a store from its object-table header page.
func Open(pg *pager.Pager, ba *buddy.Allocator, headerPno uint64, opts Options) (*Store, error) {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	mt, err := btree.Open(pg, ba, headerPno)
	if err != nil {
		return nil, err
	}
	s := &Store{pg: pg, ba: ba, opts: opts, meta: mt, open: make(map[OID]*Object)}
	v, err := mt.Get(seqKey)
	if err != nil {
		return nil, fmt.Errorf("%w: missing OID sequence: %v", ErrCorrupt, err)
	}
	s.nextOID = OID(binary.LittleEndian.Uint64(v))
	return s, nil
}

// HeaderPage identifies the store for reopening.
func (s *Store) HeaderPage() uint64 { return s.meta.HeaderPage() }

func (s *Store) persistSeq(op *pager.Op) error {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	s.mu.Lock()
	next := s.nextOID
	s.mu.Unlock()
	// Concurrent creators may persist a value past their own allocation;
	// the sequence only ever needs to be ≥ every issued OID, and seqMu
	// guarantees the last write carries the largest snapshot (put order
	// under seqMu is LSN order, so replay keeps the largest too).
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], uint64(next))
	return s.meta.PutOp(op, seqKey, v[:])
}

// withOp runs fn as one mutating operation inside the Begin bracket and
// counts it when it commits. With no Begin hook fn runs unlogged.
func (s *Store) withOp(fn func(*pager.Op) error) error {
	if s.opts.Begin == nil {
		return fn(nil)
	}
	err := s.opts.Begin(fn)
	if err == nil {
		s.stats.commits.Add(1)
	}
	return err
}

func (s *Store) now() int64 { return s.opts.Clock().UnixNano() }

// Stats returns a snapshot of store counters, safe to call concurrently
// with any operation. Objects is counted from the object table's leaves.
func (s *Store) Stats() Stats {
	st := Stats{
		Creates:      s.stats.creates.Load(),
		Deletes:      s.stats.deletes.Load(),
		Reads:        s.stats.reads.Load(),
		Writes:       s.stats.writes.Load(),
		Inserts:      s.stats.inserts.Load(),
		DeleteRanges: s.stats.deleteRanges.Load(),
		Commits:      s.stats.commits.Load(),
	}
	n := s.meta.Len()
	if n > 0 {
		n-- // exclude the sequence record
	}
	st.Objects = n
	return st
}

// CreateObject allocates a fresh object owned by owner with the given
// mode bits and returns an open handle. The whole allocation commits as
// one transaction.
func (s *Store) CreateObject(owner string, mode uint32) (*Object, error) {
	var obj *Object
	err := s.withOp(func(op *pager.Op) (err error) {
		obj, err = s.createObject(op, owner, mode)
		return err
	})
	if err != nil {
		return nil, err
	}
	return obj, nil
}

// CreateObjectDeferred is CreateObject without the per-operation commit;
// callers composing several operations into one transaction (core.Batch)
// bracket the whole composition themselves and pass its redo capture.
func (s *Store) CreateObjectDeferred(op *pager.Op, owner string, mode uint32) (*Object, error) {
	return s.createObject(op, owner, mode)
}

func (s *Store) createObject(op *pager.Op, owner string, mode uint32) (*Object, error) {
	s.mu.Lock()
	oid := s.nextOID
	s.nextOID++
	s.mu.Unlock()
	now := s.now()
	m := Meta{OID: oid, Mode: mode, Owner: owner, Atime: now, Mtime: now, Ctime: now}
	// The row, with the empty root of a new tree, goes in first: the
	// tree's inverse, staged next, runs before the row's in a rollback
	// and finds the row still there.
	if err := s.meta.PutOp(op, oidKey(oid), encodeMeta(&m)); err != nil {
		return nil, err
	}
	if err := s.persistSeq(op); err != nil {
		return nil, err
	}
	obj := &Object{s: s, oid: oid, refs: 1}
	obj.ext = extent.CreateOp(s.pg, s.ba, s.opts.ExtentConfig, op, uint64(oid), rowAnchor{s, oid})
	s.mu.Lock()
	s.open[oid] = obj
	s.mu.Unlock()
	s.stats.creates.Add(1)
	return obj, nil
}

// OpenObject returns a handle to an existing object. Handles to the same
// OID share one extent tree so concurrent access stays coherent. Each
// OpenObject must be balanced by Close.
func (s *Store) OpenObject(oid OID) (*Object, error) {
	s.mu.Lock()
	if obj, ok := s.open[oid]; ok {
		obj.refs++
		s.mu.Unlock()
		return obj, nil
	}
	s.mu.Unlock()

	// Read the row and publish the handle under one hold of the lock. A
	// row read outside it could predate the mutations of a handle opened,
	// written through and closed in the meantime, and would then carry a
	// stale root.
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj, ok := s.open[oid]; ok { // lost a race; use the winner
		obj.refs++
		return obj, nil
	}
	m, err := s.Stat(oid)
	if err != nil {
		return nil, err
	}
	obj := &Object{s: s, oid: oid, refs: 1}
	if obj.ext, err = extent.Open(s.pg, s.ba, m.Root, uint64(oid), s.opts.ExtentConfig, rowAnchor{s, oid}); err != nil {
		return nil, err
	}
	s.open[oid] = obj
	return obj, nil
}

// Stat returns the object's metadata.
func (s *Store) Stat(oid OID) (Meta, error) {
	v, err := s.meta.Get(oidKey(oid))
	if errors.Is(err, btree.ErrNotFound) {
		return Meta{}, fmt.Errorf("%w: oid %d", ErrNotFound, oid)
	}
	if err != nil {
		return Meta{}, err
	}
	return decodeMeta(oid, v)
}

// SetMode updates the object's mode bits.
func (s *Store) SetMode(oid OID, mode uint32) error {
	return s.updateMeta(oid, func(m *Meta) { m.Mode = mode; m.Ctime = s.now() })
}

// SetOwner updates the object's owner.
func (s *Store) SetOwner(oid OID, owner string) error {
	return s.updateMeta(oid, func(m *Meta) { m.Owner = owner; m.Ctime = s.now() })
}

// SetTimes overrides the access and modification times (for archival
// tools); zero values leave the field unchanged.
func (s *Store) SetTimes(oid OID, atime, mtime int64) error {
	return s.updateMeta(oid, func(m *Meta) {
		if atime != 0 {
			m.Atime = atime
		}
		if mtime != 0 {
			m.Mtime = mtime
		}
		m.Ctime = s.now()
	})
}

func (s *Store) updateMeta(oid OID, f func(*Meta)) error {
	return s.withOp(func(op *pager.Op) error { return s.updateMetaNoCommit(op, oid, f) })
}

// DeleteObject destroys the object and releases all its storage. Open
// handles become invalid.
func (s *Store) DeleteObject(oid OID) error {
	return s.withOp(func(op *pager.Op) error { return s.deleteObject(op, oid) })
}

// DeleteObjectDeferred is DeleteObject without the per-operation commit,
// for callers composing a larger transaction (the volume's name-stripping
// delete, core.Batch).
func (s *Store) DeleteObjectDeferred(op *pager.Op, oid OID) error {
	return s.deleteObject(op, oid)
}

func (s *Store) deleteObject(op *pager.Op, oid OID) error {
	// The tree open on the object, so that no deferred rebalance merges
	// its pages while Destroy collects them.
	obj, err := s.OpenObject(oid)
	if err != nil {
		return err
	}
	defer obj.Close()
	// Both steps stage their inverses, so a rollback finds the tree, its
	// runs and the row, root included, as they were — and, since the
	// handle goes only once op commits, any open handle too.
	if err := obj.ext.Destroy(op); err != nil {
		return err
	}
	if err := s.meta.DeleteOp(op, oidKey(oid)); err != nil {
		return err
	}
	if op == nil {
		s.forget(oid)
	} else {
		op.Defer(func(*pager.Op) error { s.forget(oid); return nil })
	}
	s.stats.deletes.Add(1)
	return nil
}

// DestroyTree destroys object oid's extent tree, the pages below its row
// and its data runs, forgetting any open handle: the inverse of the
// operation that created it, which runs before the row's own inverse
// deletes the row. An object whose row is gone has nothing left to free.
func (s *Store) DestroyTree(op *pager.Op, oid OID) error {
	s.forget(oid)
	m, err := s.Stat(oid)
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	ext, err := extent.Open(s.pg, s.ba, m.Root, uint64(oid), s.opts.ExtentConfig, nil)
	if err != nil {
		return err
	}
	return ext.Destroy(op)
}

// forget detaches the open handle, if any, on object oid.
func (s *Store) forget(oid OID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj, ok := s.open[oid]; ok {
		obj.closed = true
		delete(s.open, oid)
	}
}

// RestoreMeta puts back the fields of object oid's row that row, an
// inverse's old row (undo.MetaPut), holds, keeping the root the row holds
// now. An object deleted since has nothing to restore.
func (s *Store) RestoreMeta(op *pager.Op, oid OID, row []byte) error {
	old, err := decodeMeta(oid, row)
	if err != nil {
		return err
	}
	err = s.claimRow(op, oid)
	if err == nil {
		err = s.putRow(op, oid, func(m *Meta) {
			old.Root = m.Root
			*m = old
		})
	}
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}

// ForEach visits every object's metadata in OID order.
func (s *Store) ForEach(fn func(Meta) bool) error {
	var inner error
	err := s.meta.Scan([]byte{0}, nil, func(k, v []byte) bool {
		m, err := decodeMeta(OID(binary.BigEndian.Uint64(k)), v)
		if err != nil {
			inner = err
			return false
		}
		return fn(m)
	})
	if inner != nil {
		return inner
	}
	return err
}

// Sync flushes store metadata through the pager.
func (s *Store) Sync() error { return s.pg.Sync() }

// MetaTree exposes the object table for volume-level checking.
func (s *Store) MetaTree() *btree.Tree { return s.meta }
