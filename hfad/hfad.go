// Package hfad is the public API of this repository's reproduction of
// "Hierarchical File Systems Are Dead" (Seltzer & Murphy, HotOS 2009): a
// file system that replaces the hierarchical namespace with a tagged,
// search-based one.
//
// A Store is an hFAD volume on a (simulated) block device. Objects are
// uniquely identified containers of bytes with byte-level read, write,
// insert-anywhere, and truncate-anywhere. Naming is by tag/value pairs
// resolved through extensible index stores; a POSIX path is just one name
// among many. The compatibility layer exposes the same objects through
// paths, directories, hard links, and an io/fs adapter.
//
// Quick start:
//
//	dev := hfad.NewMemDevice(1 << 15) // 128 MiB simulated disk
//	st, _ := hfad.Create(dev, hfad.Options{})
//	defer st.Close()
//
//	obj, _ := st.CreateObject("margo")
//	obj.Append([]byte("the quick brown fox"))
//	st.Tag(obj.OID(), "UDEF", "notes")
//	st.IndexContent(obj.OID()) // full-text
//
//	ids, _ := st.Find(hfad.TV("FULLTEXT", "quick"), hfad.TV("UDEF", "notes"))
//
//	pfs, _ := st.POSIX()
//	pfs.WriteFile("/docs/readme.txt", []byte("legacy path"), 0o644)
package hfad

import (
	"time"

	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/fulltext"
	"repro/internal/index"
	"repro/internal/osd"
	"repro/internal/pager"
	"repro/internal/posixfs"
	"repro/internal/wal"
)

// Re-exported identifiers and naming types.
type (
	// OID uniquely identifies an object.
	OID = osd.OID
	// Object is an open byte-addressable storage object.
	Object = osd.Object
	// Meta is object metadata.
	Meta = osd.Meta
	// TagValue is one naming term.
	TagValue = core.TagValue
	// Query is a boolean query tree.
	Query = core.Query
	// Term matches objects named (Tag, Value).
	Term = core.Term
	// Range matches tag values in [Lo, Hi).
	Range = core.Range
	// And is a conjunction.
	And = core.And
	// Or is a disjunction.
	Or = core.Or
	// Not negates a subquery inside And.
	Not = core.Not
	// Search is an iterative query refinement (the semantic-FS "current
	// directory").
	Search = core.Search
	// Page bounds a query: at most Limit results (0 = all) with OIDs
	// strictly greater than After — streaming pagination, not
	// compute-all-and-slice.
	Page = core.Page
	// PlanStep is one element of an Explain or Profile plan.
	PlanStep = core.PlanStep
	// Batch composes several mutations into one commit unit (see
	// Store.Batch).
	Batch = core.Batch
)

// Standard tags (Table 1 of the paper).
const (
	TagPOSIX    = index.TagPOSIX
	TagFulltext = index.TagFulltext
	TagUser     = index.TagUser
	TagUDef     = index.TagUDef
	TagApp      = index.TagApp
	TagID       = index.TagID
	TagImage    = index.TagImage
)

// TV builds a TagValue from strings.
func TV(tag, value string) TagValue { return core.TV(tag, value) }

// Options configures volume creation. Every volume is write-ahead
// logged: each operation (or Batch) commits atomically, and a crash
// recovers by replaying the log.
type Options struct {
	// Deprecated: every volume is transactional; ignored.
	Transactional bool
	// WALBlocks sizes the log region (default 256 blocks = 1 MiB). Size
	// it for the ingest burst: the background checkpointer drains the log
	// when it passes its high-water mark, and a bigger region means fewer
	// checkpoint pauses on sustained writes. Open uses the size the
	// volume was created with.
	WALBlocks uint64
	// CachePages sizes the buffer cache (default 1024 pages).
	CachePages int
	// IndexShards spreads the USER/UDEF/APP indexes over several btrees
	// to remove lock hotspots (default 4).
	IndexShards int
	// MaxExtentBytes bounds object extents and therefore the tail copy a
	// mid-object insert can trigger (default 256 KiB).
	MaxExtentBytes uint32
	// FulltextFlushDocs buffers this many documents before writing a
	// level-0 full-text segment (default 512). A level that reaches nine
	// segments is merged into one segment of the next, so an index of N
	// documents holds at most eight segments in each of about
	// log9(N/FulltextFlushDocs) levels.
	FulltextFlushDocs int
	// Clock injects timestamps; nil uses time.Now.
	Clock func() time.Time
}

func (o Options) toCore() core.Options {
	return core.Options{
		WALBlocks:      o.WALBlocks,
		CachePages:     o.CachePages,
		IndexShards:    o.IndexShards,
		ExtentConfig:   extent.Config{MaxExtentBytes: o.MaxExtentBytes},
		FulltextConfig: fulltext.Config{FlushDocs: o.FulltextFlushDocs},
		Clock:          o.Clock,
	}
}

// Device is the stable-storage interface volumes run on.
type Device = blockdev.Device

// NewMemDevice returns an in-memory simulated disk with the given number
// of 4 KiB blocks.
func NewMemDevice(blocks uint64) *blockdev.MemDevice {
	return blockdev.NewMem(blocks, blockdev.DefaultBlockSize)
}

// Store is an open hFAD volume.
type Store struct {
	vol *core.Volume
	pfs *posixfs.FS
}

// Create formats dev as a new hFAD volume.
func Create(dev Device, opts Options) (*Store, error) {
	vol, err := core.Create(dev, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Store{vol: vol}, nil
}

// Open loads an existing volume, recovering from the write-ahead log and
// rebuilding allocator state as needed.
func Open(dev Device, opts Options) (*Store, error) {
	vol, err := core.Open(dev, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Store{vol: vol}, nil
}

// Volume exposes the native-API volume for advanced use.
func (s *Store) Volume() *core.Volume { return s.vol }

// Close cleanly shuts the volume down.
func (s *Store) Close() error { return s.vol.Close() }

// Sync flushes all state without closing.
func (s *Store) Sync() error { return s.vol.Sync() }

// --- access interfaces (objects) ---

// CreateObject allocates a new object owned by owner.
func (s *Store) CreateObject(owner string) (*Object, error) {
	return s.vol.OSD.CreateObject(owner, osd.ModeRegular|0o644)
}

// OpenObject opens an existing object by ID — the FastPath of Table 1.
func (s *Store) OpenObject(oid OID) (*Object, error) {
	return s.vol.OSD.OpenObject(oid)
}

// Stat returns an object's metadata.
func (s *Store) Stat(oid OID) (Meta, error) { return s.vol.OSD.Stat(oid) }

// DeleteObject removes all names and destroys the object.
func (s *Store) DeleteObject(oid OID) error { return s.vol.DeleteObject(oid) }

// --- naming interfaces ---

// Tag attaches a (tag, value) name to an object.
func (s *Store) Tag(oid OID, tag, value string) error {
	return s.vol.AddName(oid, tag, []byte(value))
}

// TagBytes attaches a binary-valued name (e.g. image bitmaps).
func (s *Store) TagBytes(oid OID, tag string, value []byte) error {
	return s.vol.AddName(oid, tag, value)
}

// Untag removes a (tag, value) name.
func (s *Store) Untag(oid OID, tag, value string) error {
	return s.vol.RemoveName(oid, tag, []byte(value))
}

// Names lists every name attached to an object.
func (s *Store) Names(oid OID) ([]TagValue, error) { return s.vol.Names(oid) }

// Find resolves a naming vector: the conjunction of an index lookup per
// tag/value pair, ascending by OID.
func (s *Store) Find(pairs ...TagValue) ([]OID, error) { return s.vol.Resolve(pairs...) }

// FindOne resolves to a single object (lowest OID on ties).
func (s *Store) FindOne(pairs ...TagValue) (OID, error) { return s.vol.ResolveOne(pairs...) }

// Query evaluates a boolean query tree with selectivity-ordered planning.
func (s *Store) Query(q Query) ([]OID, error) { return s.vol.Query(q) }

// QueryPage evaluates q bounded by p: the streaming engine stops after
// p.Limit results and seeks past p.After instead of materializing the
// full answer.
func (s *Store) QueryPage(q Query, p Page) ([]OID, error) { return s.vol.QueryPage(q, p) }

// FindPage resolves a naming vector bounded by p — Find for result sets
// too large to list at once.
func (s *Store) FindPage(p Page, pairs ...TagValue) ([]OID, error) {
	qs := make([]Query, len(pairs))
	for i, pair := range pairs {
		qs[i] = Term{Tag: pair.Tag, Value: pair.Value}
	}
	return s.vol.QueryPage(And{Kids: qs}, p)
}

// Batch runs fn and commits everything it did — object creation,
// appends, tagging, content indexing — as one transaction: one write
// set, one group-commit enqueue, at most one device sync (shared with
// concurrent committers), and batched multi-puts into the tag indexes.
// This is the bulk-ingest path:
//
//	err := st.Batch(func(b *hfad.Batch) error {
//		for _, doc := range docs {
//			obj, err := b.CreateObject("ingest")
//			if err != nil {
//				return err
//			}
//			if err := b.Append(obj, doc.Data); err != nil {
//				return err
//			}
//			if err := b.Tag(obj.OID(), hfad.TagUDef, doc.Label); err != nil {
//				return err
//			}
//			obj.Close()
//		}
//		return nil
//	})
//
// A non-nil error from fn skips the buffered tag puts, rolls back what
// fn already applied (object deletes included) and is returned. Run independent batches from independent goroutines; a
// single Batch is not for concurrent use.
//
// Inside fn, touch the volume ONLY through the Batch's own methods and
// direct object reads (OpenObject/ReadAt/Stat). The Store's mutating
// methods (Tag, CreateObject, object writes, ...) would open a nested
// transaction bracket, and its query methods (Find, Query, Names, ...)
// would re-acquire the lifecycle lock recursively — either can deadlock
// against a concurrent checkpoint or Close. Queries before or after the
// batch see its names once it commits.
func (s *Store) Batch(fn func(*Batch) error) error { return s.vol.Batch(fn) }

// NewSearch starts an iterative search refinement.
func (s *Store) NewSearch() *Search { return s.vol.NewSearch() }

// IndexContent reads an object's bytes and indexes them as full text.
func (s *Store) IndexContent(oid OID) error { return s.vol.IndexContent(oid) }

// StartLazyIndexing launches the background full-text indexer; queued
// objects become searchable asynchronously.
func (s *Store) StartLazyIndexing(queueDepth int) { s.vol.StartLazyIndexing(queueDepth) }

// IndexContentLazy queues an object for background indexing.
func (s *Store) IndexContentLazy(oid OID) error { return s.vol.IndexContentLazy(oid) }

// WaitIndexIdle blocks until all queued documents are searchable.
func (s *Store) WaitIndexIdle() { s.vol.WaitIndexIdle() }

// --- POSIX compatibility ---

// POSIX returns the path-based view of the volume, creating the root
// directory on first use.
func (s *Store) POSIX() (*posixfs.FS, error) {
	if s.pfs != nil {
		return s.pfs, nil
	}
	pfs, err := posixfs.New(s.vol)
	if err != nil {
		return nil, err
	}
	s.pfs = pfs
	return pfs, nil
}

// --- maintenance ---

// StoreStats aggregates every layer's counters in one snapshot. All
// sources use atomic or mutex-guarded accessors, so it is safe to call
// concurrently with any operation — this is what the hfadd server's
// /metrics endpoint scrapes under load.
type StoreStats struct {
	Objects osd.Stats
	Cache   pager.Stats
	Alloc   buddy.Stats
	// WAL is always set.
	WAL *wal.Stats
}

// Stats snapshots the volume's operation, cache, allocator, and WAL
// counters.
func (s *Store) Stats() StoreStats {
	ws := s.vol.WAL().Stats()
	return StoreStats{
		Objects: s.vol.OSD.Stats(),
		Cache:   s.vol.Pager().Stats(),
		Alloc:   s.vol.Allocator().Stats(),
		WAL:     &ws,
	}
}

// Check runs a full volume consistency check (fsck).
func (s *Store) Check() (*core.CheckReport, error) { return s.vol.Check() }

// RecoveryReport says what Open did to bring this store up, phase by
// phase, with a count and a duration each: sidecar load, log scan, replay
// and write-home, allocator restore (or the reason it was rebuilt by the
// reachability walk), undo of loser transactions, checkpoint. Every phase
// costs what the tail costs. It is the zero report for a store that was
// just created.
func (s *Store) RecoveryReport() core.RecoveryReport { return s.vol.Recovery() }

// Health reports the volume's degraded/wedged state and fault counters.
// A degraded store fails mutations fast with core.ErrReadOnly while
// reads keep serving and the background checkpointer retries.
func (s *Store) Health() core.Health { return s.vol.Health() }

// Degraded reports whether the store is in read-only degraded mode.
func (s *Store) Degraded() bool { return s.vol.Degraded() }

// Scrub walks every checksummed block on the volume, verifies it against
// its recorded CRC32C, and reports corruption counts per block class.
// It is safe (and intended) to run against a live store; set
// opts.Throttle to cede the device to foreground I/O.
func (s *Store) Scrub(opts core.ScrubOptions) (*core.ScrubReport, error) {
	return s.vol.Scrub(opts)
}

// ScrubOptions tunes Store.Scrub.
type ScrubOptions = core.ScrubOptions

// ScrubReport is the result of a Store.Scrub pass.
type ScrubReport = core.ScrubReport

// Explain returns the planner's evaluation order for a query without
// executing it.
func (s *Store) Explain(q Query) ([]PlanStep, error) { return s.vol.Explain(q) }

// Profile executes a (bounded) query and returns the results together
// with the executed plan: per-leaf selectivity estimates plus the seek
// and emit counts the streaming iterators actually performed.
func (s *Store) Profile(q Query, p Page) ([]OID, []PlanStep, error) { return s.vol.Profile(q, p) }
