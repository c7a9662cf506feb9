// Package osd implements hFAD's object-based storage device layer: "the
// abstraction of a uniquely identified container of bytes", where each
// container carries metadata (security attributes, access and modified
// times, size) and — unlike traditional OSDs — is fully byte-accessible:
// bytes can be read, overwritten, inserted into the middle, and removed
// from the middle.
//
// Objects are backed by counted extent trees (package extent). Object
// metadata lives in two places, following the paper's implementation
// sketch: authoritative copies in a global OID→metadata btree ("we use BDB
// Btrees to map unique object IDs (OID) to the meta-data for an object"),
// and a redundant copy under the NULL slot of the object's own tree header
// page ("we use a NULL key value in the Btree to store the meta-data
// associated with an object"), which fsck cross-checks.
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
	"repro/internal/redo"
	"repro/internal/undo"
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
	OID          OID
	Size         uint64
	Mode         uint32
	Owner        string // the paper's security attribute / USER tag source
	Atime        int64  // unix nanoseconds
	Mtime        int64
	Ctime        int64
	ExtentHeader uint64 // header page of the object's extent tree
}

const metaFixedSize = 8 + 8 + 4 + 8 + 8 + 8 + 8 + 2 // + owner bytes

func encodeMeta(m *Meta) []byte {
	out := make([]byte, metaFixedSize+len(m.Owner))
	binary.LittleEndian.PutUint64(out[0:], uint64(m.OID))
	binary.LittleEndian.PutUint64(out[8:], m.Size)
	binary.LittleEndian.PutUint32(out[16:], m.Mode)
	binary.LittleEndian.PutUint64(out[20:], uint64(m.Atime))
	binary.LittleEndian.PutUint64(out[28:], uint64(m.Mtime))
	binary.LittleEndian.PutUint64(out[36:], uint64(m.Ctime))
	binary.LittleEndian.PutUint64(out[44:], m.ExtentHeader)
	binary.LittleEndian.PutUint16(out[52:], uint16(len(m.Owner)))
	copy(out[54:], m.Owner)
	return out
}

func decodeMeta(b []byte) (Meta, error) {
	if len(b) < metaFixedSize {
		return Meta{}, fmt.Errorf("%w: meta record %d bytes", ErrCorrupt, len(b))
	}
	m := Meta{
		OID:          OID(binary.LittleEndian.Uint64(b[0:])),
		Size:         binary.LittleEndian.Uint64(b[8:]),
		Mode:         binary.LittleEndian.Uint32(b[16:]),
		Atime:        int64(binary.LittleEndian.Uint64(b[20:])),
		Mtime:        int64(binary.LittleEndian.Uint64(b[28:])),
		Ctime:        int64(binary.LittleEndian.Uint64(b[36:])),
		ExtentHeader: binary.LittleEndian.Uint64(b[44:]),
	}
	olen := int(binary.LittleEndian.Uint16(b[52:]))
	if metaFixedSize+olen > len(b) {
		return Meta{}, fmt.Errorf("%w: owner overruns record", ErrCorrupt)
	}
	m.Owner = string(b[54 : 54+olen])
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
	mt, err := btree.Create(pg, pageAlloc{ba})
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
	mt, err := btree.Open(pg, pageAlloc{ba}, headerPno)
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

// pageAlloc adapts buddy to btree page allocation.
type pageAlloc struct{ ba *buddy.Allocator }

func (a pageAlloc) AllocPage() (uint64, error) { return a.ba.Alloc(1) }
func (a pageAlloc) FreePage(no uint64) error   { return a.ba.Free(no, 1) }

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
	ext, err := extent.CreateOp(s.pg, s.ba, s.opts.ExtentConfig, op)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	oid := s.nextOID
	s.nextOID++
	s.mu.Unlock()
	now := s.now()
	m := Meta{
		OID: oid, Mode: mode, Owner: owner,
		Atime: now, Mtime: now, Ctime: now,
		ExtentHeader: ext.HeaderPage(),
	}
	if err := s.meta.PutOp(op, oidKey(oid), encodeMeta(&m)); err != nil {
		return nil, err
	}
	if err := s.persistSeq(op); err != nil {
		return nil, err
	}
	if err := s.writeShadowMeta(op, &m); err != nil {
		return nil, err
	}
	obj := &Object{s: s, oid: oid, ext: ext, refs: 1}
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

	m, err := s.Stat(oid)
	if err != nil {
		return nil, err
	}
	// Load the tree and publish its handle under one hold of the lock. A
	// tree loaded outside it could predate the mutations of a handle
	// opened, written through and closed in the meantime, and would then
	// carry a stale size and root.
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj, ok := s.open[oid]; ok { // lost a race; use the winner
		obj.refs++
		return obj, nil
	}
	ext, err := extent.Open(s.pg, s.ba, m.ExtentHeader, s.opts.ExtentConfig)
	if err != nil {
		return nil, err
	}
	obj := &Object{s: s, oid: oid, ext: ext, refs: 1}
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
	return decodeMeta(v)
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

// shadowMetaOff is where the redundant metadata copy lives in the extent
// tree's header page (past the tree's own fields).
const shadowMetaOff = 64

// writeShadowMeta stores the paper's NULL-key metadata copy in the
// object's own header page, staging it as an absolute byte-range record
// — the ~60 logical bytes of the edit, where the retired image route
// logged the whole 4 KiB header page per operation.
func (s *Store) writeShadowMeta(op *pager.Op, m *Meta) error {
	return s.pg.With(m.ExtentHeader, func(pg *pager.Page) error {
		enc := encodeMeta(m)
		d := pg.Data()
		if shadowMetaOff+2+len(enc) > len(d) {
			return fmt.Errorf("%w: shadow meta too large", ErrCorrupt)
		}
		rec := make([]byte, 2+len(enc))
		binary.LittleEndian.PutUint16(rec, uint16(len(enc)))
		copy(rec[2:], enc)
		if op.UndoEnabled() {
			// Before-image of exactly the span the redo record overwrites:
			// restoring it restores the old length prefix, so a longer old
			// record's untouched tail reads back intact.
			old := append([]byte(nil), d[shadowMetaOff:shadowMetaOff+len(rec)]...)
			op.StageUndo(undo.Range(m.ExtentHeader, shadowMetaOff, old))
		}
		copy(d[shadowMetaOff:], rec)
		s.pg.MarkDirtyRec(pg, op, redo.KindRange, redo.EncodeRange(shadowMetaOff, rec))
		return nil
	})
}

// ShadowMeta reads the redundant metadata copy from the object's header
// page; fsck compares it with the object table.
func (s *Store) ShadowMeta(extentHeader uint64) (Meta, error) {
	var m Meta
	err := s.pg.With(extentHeader, func(pg *pager.Page) error {
		d := pg.Data()
		n := int(binary.LittleEndian.Uint16(d[shadowMetaOff:]))
		if n == 0 || shadowMetaOff+2+n > len(d) {
			return fmt.Errorf("%w: missing shadow meta", ErrCorrupt)
		}
		var err error
		m, err = decodeMeta(d[shadowMetaOff+2 : shadowMetaOff+2+n])
		return err
	})
	if err != nil {
		return Meta{}, err
	}
	return m, nil
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
	m, err := s.Stat(oid)
	if err != nil {
		return err
	}
	s.mu.Lock()
	obj, wasOpen := s.open[oid]
	s.mu.Unlock()

	var ext *extent.Tree
	if wasOpen {
		ext = obj.ext
	} else {
		ext, err = extent.Open(s.pg, s.ba, m.ExtentHeader, s.opts.ExtentConfig)
		if err != nil {
			return err
		}
	}
	// Both steps stage their inverses, so a rollback finds the tree, its
	// runs and the meta row as they were — and, since the handle goes
	// only once op commits, any open handle too.
	if err := ext.Destroy(op); err != nil {
		return err
	}
	if err := s.meta.DeleteOp(op, oidKey(oid)); err != nil {
		return err
	}
	if op == nil {
		s.forget(m.ExtentHeader)
	} else {
		op.Defer(func(*pager.Op) error { s.forget(m.ExtentHeader); return nil })
	}
	s.stats.deletes.Add(1)
	return nil
}

// DestroyTree destroys the extent tree rooted at hdr, forgetting any open
// handle on it: the inverse of the operation that created it.
func (s *Store) DestroyTree(op *pager.Op, hdr uint64) error {
	s.forget(hdr)
	ext, err := extent.Open(s.pg, s.ba, hdr, s.opts.ExtentConfig)
	if err != nil {
		return err
	}
	return ext.Destroy(op)
}

// forget detaches the open handle, if any, on the tree rooted at hdr.
func (s *Store) forget(hdr uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for oid, obj := range s.open {
		if obj.ext.HeaderPage() == hdr {
			obj.closed = true
			delete(s.open, oid)
		}
	}
}

// LookupByHeader resolves the OID whose extent tree is rooted at the
// given header page — the reverse of Meta.ExtentHeader. Open handles
// are checked first (the common case during a runtime abort); otherwise
// the header page's shadow metadata names the object, and the object
// table confirms that the object still exists and still lives there — one
// page and one lookup, not a scan of the table. The undo executor, which
// addresses trees by header page, uses it to route through the object
// layer so metadata stays in step.
func (s *Store) LookupByHeader(hdr uint64) (OID, error) {
	s.mu.Lock()
	for oid, obj := range s.open {
		if obj.ext.HeaderPage() == hdr {
			s.mu.Unlock()
			return oid, nil
		}
	}
	s.mu.Unlock()
	shadow, err := s.ShadowMeta(hdr)
	if err == nil {
		var m Meta
		if m, err = s.Stat(shadow.OID); err == nil && m.ExtentHeader == hdr {
			return m.OID, nil
		}
	}
	if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrCorrupt) {
		return 0, err // the device, not the lookup, failed
	}
	return 0, fmt.Errorf("%w: no object with header page %d", ErrNotFound, hdr)
}

// ForEach visits every object's metadata in OID order.
func (s *Store) ForEach(fn func(Meta) bool) error {
	var inner error
	err := s.meta.Scan([]byte{0}, nil, func(k, v []byte) bool {
		m, err := decodeMeta(v)
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
