// Package core implements the hFAD volume: the native API of Figure 1.
//
// A volume ties the substrates together on one block device:
//
//	superblock (block 0)
//	write-ahead log region
//	allocator snapshot region
//	data region: buddy-managed pages and extents holding
//	    the OSD object table, per-object extent trees,
//	    the index stores (KV, fulltext, image), and
//	    the reverse (OID → names) index
//
// The public surface is the paper's two API halves: naming interfaces
// that map tagged search terms to objects (AddName/RemoveName/Resolve/
// Query), and access interfaces that manipulate an object once located
// (Object read/write/insert/truncate-range, via the OSD layer).
//
// Durability: the paper's "the OSD may be transactional, but this is an
// implementation decision" is decided — every volume is transactional.
// Each mutating operation runs inside withOp, stages typed redo records —
// and the logical inverses that undo them — in its own pager.Op as it
// mutates pages, and commits them through the WAL's group committer (full
// ARIES: physiological redo, logical undo, steal / no-force). The
// operation whose commit takes the log past its high-water mark then
// checkpoints — writes pages home and resets the log — before it
// returns. Allocation is a logged mutation like any other: each
// checkpoint leaves an allocator snapshot stamped with the log's LSN
// fence, and crash recovery repeats history from the log tail — pages,
// allocator and all — then rolls losers back, so Open costs what the
// tail costs, not what the volume holds (recovery.go, allocsnap.go).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
	"repro/internal/btree"
	"repro/internal/buddy"
	"repro/internal/extent"
	"repro/internal/fulltext"
	"repro/internal/index"
	"repro/internal/osd"
	"repro/internal/pager"
	"repro/internal/redo"
	"repro/internal/wal"
)

// Errors.
var (
	ErrBadSuperblock = errors.New("core: bad superblock")
	ErrTooSmall      = errors.New("core: device too small")
	ErrQuery         = errors.New("core: invalid query")
	ErrNotFound      = errors.New("core: not found")
	ErrClosed        = errors.New("core: volume closed")
	// ErrReadOnly fails mutations fast while the volume is degraded: the
	// last checkpoint failed — the device refused a flush or the sync —
	// and the retry that would clear it is not due yet or failed again.
	// Reads continue; the next mutation or Health call after the backoff
	// retries the checkpoint and lifts the state on success.
	ErrReadOnly = errors.New("core: volume degraded (read-only)")
)

// OID aliases the OSD identifier.
type OID = osd.OID

// Superblock layout (block 0, little-endian):
//
//	[0:4]    magic
//	[4:8]    version
//	[8:12]   block size
//	[12:16]  flags (bit 0: log region present — always set, bit 1: clean shutdown)
//	[16:24]  wal start block   [24:32]  wal blocks
//	[32:40]  snapshot start    [40:48]  snapshot blocks
//	[48:56]  data region start [56:64]  data region blocks
//	[64:72]  OSD header page
//	[72:80]  catalog header page
//	[80:88]  checksum sidecar start [88:96] checksum sidecar blocks
//	[96:100] crc32 of bytes [0:96]
const (
	sbMagic = 0x68464144 // "hFAD"
	// v8: the allocator, its snapshot and its log records count in
	// sectors, an extent cell addresses sectors (a batch packs small
	// objects into slots of shared blocks), and a full-text segment's
	// manifest value carries its docID range.
	sbVersion = 8

	flagLogged = 1 << 0
	flagClean  = 1 << 1
)

// Options configures volume creation.
type Options struct {
	// WALBlocks sizes the log region (default 256 blocks). Open takes the
	// size the volume was created with.
	WALBlocks uint64
	// SnapshotBlocks sizes the allocator snapshot region (default 64,
	// split into two alternating slots).
	SnapshotBlocks uint64
	// CachePages sizes the buffer cache (default 1024).
	CachePages int
	// IndexShards shards the USER/UDEF/APP indexes (default 4).
	IndexShards int
	// ExtentConfig tunes object extent trees.
	ExtentConfig extent.Config
	// FulltextConfig tunes the inverted index.
	FulltextConfig fulltext.Config
	// Clock injects timestamps and times the degraded retry backoff
	// (tests); nil = time.Now.
	Clock func() time.Time
}

func (o *Options) fill() {
	if o.WALBlocks == 0 {
		o.WALBlocks = 256
	}
	if o.SnapshotBlocks == 0 {
		o.SnapshotBlocks = 64
	}
	if o.SnapshotBlocks < 2 {
		o.SnapshotBlocks = 2 // one block per slot (allocsnap.go)
	}
	if o.CachePages == 0 {
		o.CachePages = 1024
	}
	if o.IndexShards == 0 {
		o.IndexShards = 4
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

// Volume is an open hFAD volume.
type Volume struct {
	// raw is the device itself, for I/O that must bypass verification:
	// superblock and sidecar maintenance, and recovery's replay reads
	// (home pages may legitimately trail or lead the checkpoint-time
	// sidecar; replay rebuilds them from logged base images).
	raw  blockdev.Device
	sums *pageSums
	// cdev is the checksumming view of the device: data-region writes
	// record CRC32C sums, reads verify them (see csum.go). Everything
	// that touches home pages goes through it: the pager, which every
	// structure layer's I/O passes, object data included, and recovery's
	// write-home.
	cdev *csumDevice
	opts Options
	pg   *pager.Pager
	ba   *buddy.Allocator
	log  *wal.Log
	OSD  *osd.Store

	catalog  *btree.Tree
	reverse  *btree.Tree
	registry *index.Registry
	ft       *index.Fulltext
	img      *index.ImageIndex
	kvTrees  []*btree.Tree // every KV index btree, for fsck

	dataStart, dataBlocks uint64
	snapStart, snapBlocks uint64
	csumStart, csumBlocks uint64

	// snapCur is the allocator snapshot slot the log generation on the
	// device belongs to (-1: none), snapSeq the last slot sequence number
	// written; both change only under the checkpoint fence (allocsnap.go).
	snapCur int
	snapSeq uint64
	// recovery is what Open did (see Recovery).
	recovery RecoveryReport

	closed bool
	// mu is the volume lifecycle lock: naming and query operations hold
	// it shared — so any number of Finds/Queries (and index mutations,
	// which serialize on their own tree locks) proceed in parallel —
	// while Close holds it exclusively to fence them out. Nothing holds
	// it across a whole query's evaluation wait points except the query
	// itself; iterators take per-tree read locks per step.
	mu sync.RWMutex

	// ckptMu is the checkpoint fence: every mutating operation holds it
	// shared for its whole bracket (build write set + group commit), and
	// a checkpoint holds it exclusively, so the log is only reset at
	// an operation quiescent point. Operation brackets must never nest
	// (nested RLock deadlocks against a waiting writer); compound
	// operations compose Deferred variants under one bracket instead.
	ckptMu sync.RWMutex
	// ckptDue is set by a commit that finds the log past its high-water
	// mark (maybeTriggerCheckpoint); the operation that claims it runs
	// the checkpoint once it has left the fence (withOp). A log that is
	// full or wedged behind a system transaction sets it too (sysAppender).
	ckptDue atomic.Bool

	// abortMu serializes rollbacks: at most one operation executes its
	// inverses at a time, so a rollback never waits on another unfinished
	// CLR-mode op (see pager.FlushOpDeps) and a dependency flush hitting a
	// not-yet-started rollback still finds a cleanly undoable record set.
	abortMu sync.Mutex
	// ckptFallbacks counts commits that fell back to a full checkpoint on
	// wal.ErrFull — the log-capacity escape hatch that remains after the
	// cache-capacity (no-steal) fallback was retired.
	// TestBatchBeyondCacheSteals asserts it stays zero for bigger-than-cache
	// batches.
	ckptFallbacks atomic.Int64

	// degraded latches when a checkpoint fails and clears when one
	// succeeds: mutations fail fast with ErrReadOnly and reads keep
	// serving. The first mutation or Health call at or after retryAt
	// (UnixNano on opts.Clock) claims the retry and runs the checkpoint.
	degraded atomic.Bool
	retryAt  atomic.Int64
	// retryWait is the backoff the last failure set, doubled on each
	// further one; checkpointNow keeps it under ckptMu.
	retryWait time.Duration
	// ckptFailures counts failed checkpoints since open (health surface).
	ckptFailures atomic.Int64
}

// Checkpoint retry backoff while degraded.
const (
	ckptRetryMin = 5 * time.Millisecond
	ckptRetryMax = time.Second
)

// ckptHighWater is the fraction of log capacity past which a commit
// triggers a checkpoint, so long ingest runs drain the log before appends
// hit ErrFull mid-burst.
const ckptHighWaterNum, ckptHighWaterDen = 2, 3

// rlock takes the shared lifecycle lock, failing once the volume is
// closed. Callers defer the returned unlock.
func (v *Volume) rlock() (func(), error) {
	v.mu.RLock()
	if v.closed {
		v.mu.RUnlock()
		return nil, ErrClosed
	}
	return v.mu.RUnlock, nil
}

// Create formats dev as a new hFAD volume.
func Create(dev blockdev.Device, opts Options) (*Volume, error) {
	opts.fill()
	snapStart := 1 + opts.WALBlocks
	csumStart := snapStart + opts.SnapshotBlocks
	if dev.NumBlocks() <= csumStart+16 {
		return nil, fmt.Errorf("%w: %d blocks, need > %d", ErrTooSmall, dev.NumBlocks(), csumStart+16)
	}
	// Split what remains between the checksum sidecar (sumEntrySize bytes
	// per data block) and the data region itself.
	bs := uint64(dev.BlockSize())
	rest := dev.NumBlocks() - csumStart
	csumBlocks := (rest*sumEntrySize + bs + sumEntrySize - 1) / (bs + sumEntrySize)
	dataStart := csumStart + csumBlocks
	dataBlocks := rest - csumBlocks
	if dataBlocks < 16 {
		return nil, fmt.Errorf("%w: %d data blocks after metadata regions", ErrTooSmall, dataBlocks)
	}

	v := &Volume{
		raw: dev, opts: opts,
		ba:         buddy.New(dataStart, dataBlocks),
		dataStart:  dataStart,
		dataBlocks: dataBlocks,
		snapStart:  snapStart,
		snapBlocks: opts.SnapshotBlocks,
		csumStart:  csumStart,
		csumBlocks: csumBlocks,
		snapCur:    -1,
		registry:   index.NewRegistry(),
	}
	v.sums = newPageSums(dataStart, dataBlocks, dev.BlockSize())
	v.cdev = &csumDevice{inner: dev, sums: v.sums}
	v.pg = pager.New(v.cdev, opts.CachePages, false)
	v.log = wal.New(dev, 1, opts.WALBlocks)
	// The device may previously have held a volume whose log region still
	// contains CRC-valid committed records. Scan it (replaying nothing) to
	// adopt the old generation's txn-id and LSN high-water marks, then
	// reset the region — otherwise a crash before this volume's first
	// commit could let recovery replay the old generation over the fresh
	// format, and old high-id leftovers past a new tail would slip the
	// monotonic fences.
	// A region of another log format holds nothing this one would read:
	// its records' CRCs cover other spans than a frame's.
	if _, err := v.log.Recover(nil); err != nil && !errors.Is(err, wal.ErrFormat) {
		return nil, err
	}
	v.pg.SeedLSN(v.log.MaxLSN())
	if err := v.log.Checkpoint(v.pg.CurrentLSN()); err != nil {
		return nil, err
	}
	// Deferred (limbo) frees: a run freed mid-generation must not be
	// reused before the free is durable; limbo drains at checkpoints.
	v.ba.SetDeferredFrees(true)

	var err error
	v.OSD, err = osd.Create(v.pg, v.ba, osd.Options{
		Begin:        v.withOp,
		ExtentConfig: opts.ExtentConfig,
		Clock:        opts.Clock,
	})
	if err != nil {
		return nil, err
	}
	v.catalog, err = btree.Create(v.pg, v.ba)
	if err != nil {
		return nil, err
	}
	v.reverse, err = btree.Create(v.pg, v.ba)
	if err != nil {
		return nil, err
	}
	if err := v.catalogPut("rev", v.reverse.HeaderPage()); err != nil {
		return nil, err
	}
	// Persist tuning that changes on-device interpretation, so reopening
	// with different Options cannot silently alter behaviour.
	cfg := opts.ExtentConfig
	cfg.Fill(dev.BlockSize())
	if err := v.catalogPut("cfg/maxExtent", uint64(cfg.MaxExtentBytes)); err != nil {
		return nil, err
	}
	if err := v.createIndexes(); err != nil {
		return nil, err
	}
	if err := v.writeSuperblock(false); err != nil {
		return nil, err
	}
	// Formatting needs no WAL pass: flushing everything home makes the
	// fresh volume durable in one stroke.
	if err := v.pg.Sync(); err != nil {
		return nil, err
	}
	if err := v.flushPageSums(); err != nil {
		return nil, err
	}
	// Formatting allocated unlogged; the first snapshot slot records the
	// result against the fence the empty log was reset behind, so a crash
	// before the first checkpoint recovers from it. Whatever slots an
	// earlier volume left on the device go first.
	if err := v.wipeAllocSlots(); err != nil {
		return nil, err
	}
	if v.snapCur, err = v.writeAllocSlot(v.log.Fence()); err != nil {
		return nil, err
	}
	if err := v.raw.Sync(); err != nil {
		return nil, err
	}
	v.enableBaseImages()
	v.enableSteal()
	return v, nil
}

// enableBaseImages turns on the pager's first-touch base-image logging
// (see pager.EnableBaseImages). Called only at a clean generation
// boundary — after formatting or recovery — so no page is dirtied before
// its base can be captured.
func (v *Volume) enableBaseImages() {
	v.pg.EnableBaseImages(sysAppender{v})
}

// enableSteal turns on steal eviction and undo capture: an uncommitted
// dirty page becomes evictable once its staged records are chunk-appended
// to the WAL and synced (WAL-before-data), and every typed mutation
// captures its logical inverse so aborts and loser recovery can roll
// back. Called at the same clean generation boundaries as
// enableBaseImages.
func (v *Volume) enableSteal() {
	v.pg.EnableSteal(v.log)
	v.pg.EnableUndo()
}

// createIndexes builds the standard Table 1 index stores plus the image
// plug-in, recording headers in the catalog.
func (v *Volume) createIndexes() error {
	// Unsharded path indexes (prefix scans stay single-structure).
	for _, tag := range []string{index.TagPOSIX, "PDIR"} {
		kv, err := index.NewKVIndex(tag, v.pg, v.ba)
		if err != nil {
			return err
		}
		if err := v.catalogPut("idx/"+tag+"/0", kv.HeaderPage()); err != nil {
			return err
		}
		v.kvTrees = append(v.kvTrees, kv.Tree())
		v.registry.Register(kv)
	}
	// Sharded attribute indexes.
	for _, tag := range []string{index.TagUser, index.TagUDef, index.TagApp} {
		var shards []index.Store
		for i := 0; i < v.opts.IndexShards; i++ {
			kv, err := index.NewKVIndex(tag, v.pg, v.ba)
			if err != nil {
				return err
			}
			if err := v.catalogPut(fmt.Sprintf("idx/%s/%d", tag, i), kv.HeaderPage()); err != nil {
				return err
			}
			v.kvTrees = append(v.kvTrees, kv.Tree())
			shards = append(shards, kv)
		}
		if v.opts.IndexShards == 1 {
			v.registry.Register(shards[0].(*index.KVIndex))
		} else {
			v.registry.Register(index.NewSharded(tag, shards))
		}
	}
	ftIdx, err := fulltext.Create(v.pg, v.ba, v.fulltextConfig())
	if err != nil {
		return err
	}
	if err := v.catalogPut("ft", ftIdx.ManifestPage()); err != nil {
		return err
	}
	v.ft = index.NewFulltext(ftIdx)
	v.registry.Register(v.ft)

	v.img, err = index.NewImageIndex(v.pg, v.ba)
	if err != nil {
		return err
	}
	if err := v.catalogPut("img", v.img.HeaderPage()); err != nil {
		return err
	}
	v.registry.Register(v.img)
	return nil
}

func (v *Volume) catalogPut(key string, pno uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], pno)
	return v.catalog.Put([]byte(key), b[:])
}

func (v *Volume) catalogGet(key string) (uint64, error) {
	b, err := v.catalog.Get([]byte(key))
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// writeSuperblock persists block 0 directly (not through the pager, so it
// never participates in WAL logging).
func (v *Volume) writeSuperblock(clean bool) error {
	b := make([]byte, v.raw.BlockSize())
	binary.LittleEndian.PutUint32(b[0:], sbMagic)
	binary.LittleEndian.PutUint32(b[4:], sbVersion)
	binary.LittleEndian.PutUint32(b[8:], uint32(v.raw.BlockSize()))
	flags := uint32(flagLogged)
	if clean {
		flags |= flagClean
	}
	binary.LittleEndian.PutUint32(b[12:], flags)
	binary.LittleEndian.PutUint64(b[16:], 1)
	binary.LittleEndian.PutUint64(b[24:], v.opts.WALBlocks)
	binary.LittleEndian.PutUint64(b[32:], v.snapStart)
	binary.LittleEndian.PutUint64(b[40:], v.snapBlocks)
	binary.LittleEndian.PutUint64(b[48:], v.dataStart)
	binary.LittleEndian.PutUint64(b[56:], v.dataBlocks)
	binary.LittleEndian.PutUint64(b[64:], v.OSD.HeaderPage())
	binary.LittleEndian.PutUint64(b[72:], v.catalog.HeaderPage())
	binary.LittleEndian.PutUint64(b[80:], v.csumStart)
	binary.LittleEndian.PutUint64(b[88:], v.csumBlocks)
	binary.LittleEndian.PutUint32(b[96:], crc32.ChecksumIEEE(b[:96]))
	return v.raw.WriteBlock(0, b)
}

type superblock struct {
	clean                 bool
	walStart, walBlocks   uint64
	snapStart, snapBlocks uint64
	dataStart, dataBlocks uint64
	osdHeader             uint64
	catalogHeader         uint64
	csumStart, csumBlocks uint64
}

func readSuperblock(dev blockdev.Device) (*superblock, error) {
	b := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(0, b); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(b[0:]) != sbMagic {
		return nil, fmt.Errorf("%w: magic mismatch", ErrBadSuperblock)
	}
	if binary.LittleEndian.Uint32(b[96:]) != crc32.ChecksumIEEE(b[:96]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSuperblock)
	}
	if got := binary.LittleEndian.Uint32(b[4:]); got != sbVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadSuperblock, got, sbVersion)
	}
	if got := binary.LittleEndian.Uint32(b[8:]); got != uint32(dev.BlockSize()) {
		return nil, fmt.Errorf("%w: block size %d, device has %d", ErrBadSuperblock, got, dev.BlockSize())
	}
	flags := binary.LittleEndian.Uint32(b[12:])
	if flags&flagLogged == 0 {
		return nil, fmt.Errorf("%w: volume has no log region", ErrBadSuperblock)
	}
	return &superblock{
		clean:         flags&flagClean != 0,
		walStart:      binary.LittleEndian.Uint64(b[16:]),
		walBlocks:     binary.LittleEndian.Uint64(b[24:]),
		snapStart:     binary.LittleEndian.Uint64(b[32:]),
		snapBlocks:    binary.LittleEndian.Uint64(b[40:]),
		dataStart:     binary.LittleEndian.Uint64(b[48:]),
		dataBlocks:    binary.LittleEndian.Uint64(b[56:]),
		osdHeader:     binary.LittleEndian.Uint64(b[64:]),
		catalogHeader: binary.LittleEndian.Uint64(b[72:]),
		csumStart:     binary.LittleEndian.Uint64(b[80:]),
		csumBlocks:    binary.LittleEndian.Uint64(b[88:]),
	}, nil
}

// Open loads an existing volume and recovers it. A volume has one
// recovery sequence, whatever state it was left in:
//
//  1. load the checksum sidecar;
//  2. scan the log and repeat history — committed transactions, system
//     transactions and loser chunks — writing the rebuilt pages home;
//  3. restore the allocator: the snapshot slot stamped with the log's
//     fence, plus the tail's allocator records;
//  4. open the structures;
//  5. roll loser chains back through their logical inverses;
//  6. checkpoint: pages home, sidecar, a fresh snapshot slot, log reset.
//
// Steps 2 to 6 cost what the tail costs; after a clean shutdown the tail
// is empty. No counter needs healing in between: a tree keeps no count
// that no record owns (a btree counts its leaves, an object's size is its
// extent tree's root sum, and split records carry no sums), and an
// operation that built on a neighbour's edits of an extent tree did not
// commit before those edits reached the log (pager.After). A loser is
// rolled back like a runtime abort: every mutation it logged has its
// inverse in its chain, so the allocator restored in step 3 stays exact
// through step 5. The reachability walk — what fsck checks the allocator
// against — replaces step 3 only when the device holds nothing to restore
// from (restoreAllocator lists when). It runs after step 4, because it
// reads the structures.
func Open(dev blockdev.Device, opts Options) (*Volume, error) {
	t0 := time.Now()
	opts.fill()
	sb, err := readSuperblock(dev)
	if err != nil {
		return nil, err
	}
	opts.WALBlocks = sb.walBlocks

	v := &Volume{
		raw: dev, opts: opts,
		dataStart:  sb.dataStart,
		dataBlocks: sb.dataBlocks,
		snapStart:  sb.snapStart,
		snapBlocks: sb.snapBlocks,
		csumStart:  sb.csumStart,
		csumBlocks: sb.csumBlocks,
		snapCur:    -1,
		registry:   index.NewRegistry(),
	}
	rep := &v.recovery
	rep.Clean = sb.clean
	v.sums = newPageSums(sb.dataStart, sb.dataBlocks, dev.BlockSize())
	// The durable sidecar matches the last durable checkpoint; any later
	// home write is covered by WAL records whose replay below rewrites the
	// page (recomputing its sum) through v.cdev.
	if err := timed(&rep.SidecarLoad, v.loadPageSums); err != nil {
		return nil, err
	}
	rep.SidecarLoad.Count = int64(sb.csumBlocks)
	v.cdev = &csumDevice{inner: dev, sums: v.sums}
	v.pg = pager.New(v.cdev, opts.CachePages, false)

	// Recover the WAL first so all metadata pages are current: redo
	// records replay in LSN (mutation) order against an in-memory
	// materialization of the touched pages, which is then written home.
	// The log is not reset yet: everything recovery itself logs below —
	// the losers' compensations and the base images of the pages they
	// touch — joins the same generation, and the checkpoint that ends Open
	// resets it, so a crash anywhere in between replays from the same bytes.
	v.log = wal.New(dev, sb.walStart, sb.walBlocks)
	tail, err := v.replayLog()
	if err != nil {
		return nil, err
	}
	v.pg.SeedLSN(v.log.MaxLSN())
	losers := v.log.Losers()
	v.enableBaseImages()
	v.enableSteal()

	if err := timed(&rep.Allocator, func() error { return v.restoreAllocator(sb, tail) }); err != nil {
		return nil, err
	}
	v.ba.SetDeferredFrees(true)

	v.OSD, err = osd.Open(v.pg, v.ba, sb.osdHeader, osd.Options{
		Begin:        v.withOp,
		ExtentConfig: opts.ExtentConfig,
		Clock:        opts.Clock,
	})
	if err != nil {
		return nil, err
	}
	v.catalog, err = btree.Open(v.pg, v.ba, sb.catalogHeader)
	if err != nil {
		return nil, err
	}
	revPno, err := v.catalogGet("rev")
	if err != nil {
		return nil, err
	}
	v.reverse, err = btree.Open(v.pg, v.ba, revPno)
	if err != nil {
		return nil, err
	}
	// The persisted extent tuning wins over whatever the caller passed.
	if maxExt, cerr := v.catalogGet("cfg/maxExtent"); cerr == nil && maxExt != 0 {
		v.opts.ExtentConfig.MaxExtentBytes = uint32(maxExt)
	}
	if err := v.openIndexes(); err != nil {
		return nil, err
	}
	if rep.AllocWalk != "" {
		if err := timed(&rep.Allocator, func() error { return v.rebuildAllocator(tail) }); err != nil {
			return nil, err
		}
	}
	if len(losers) > 0 {
		// ARIES undo of losers: repeat-history replay above brought every
		// page to its crash state (loser edits included); now the loser
		// chains' logical inverses run newest-first through the live
		// structures, and each chain commits its compensations naming the
		// chain's tail — resolving it, so a crash before the checkpoint
		// below re-runs the undo idempotently. Requires the allocator
		// restored first: the inverses allocate and free for real.
		if err := timed(&rep.Undo, func() error { return v.undoLosers(losers) }); err != nil {
			return nil, err
		}
		rep.Undo.Count = int64(len(losers))
	}
	if err := timed(&rep.Checkpoint, v.checkpointNow); err != nil {
		return nil, err
	}
	rep.Checkpoint.Count = 1
	// Mark the volume dirty while open.
	if err := v.writeSuperblock(false); err != nil {
		return nil, err
	}
	rep.Total = time.Since(t0)
	return v, nil
}

// restoreAllocator is Open's step 3. It sets v.ba — exact, or a
// placeholder with recovery.AllocWalk saying why the reachability walk
// must fill it in once the structures are open. The reasons are both read
// off the device:
//
//   - no snapshot slot carries the fence of the log on the device: both
//     torn, or wiped by a checkpoint whose snapshot outgrew the slot, or
//     written by nobody yet;
//   - the slot does not decode, or the tail does not apply to it.
func (v *Volume) restoreAllocator(sb *superblock, tail []allocRec) error {
	rep := &v.recovery
	walk := func(why string) error {
		rep.AllocWalk = why
		v.ba = buddy.New(sb.dataStart, sb.dataBlocks)
		return nil
	}
	fence := v.log.Fence()
	payload, lsn, err := v.loadAllocSlots(func(s allocSlot) bool { return s.lsn == fence })
	if err != nil {
		return err
	}
	if payload == nil {
		return walk("no valid snapshot slot for the log's fence")
	}
	ba, err := replayAllocator(payload, tail)
	if err == nil && (ba.Base() != sb.dataStart || ba.Size() != sb.dataBlocks) {
		err = fmt.Errorf("covers [%d,+%d), not the data region", ba.Base(), ba.Size())
	}
	if err != nil {
		return walk(fmt.Sprintf("snapshot slot unusable: %v", err))
	}
	v.ba = ba
	rep.AllocSlotLSN = lsn
	rep.Allocator.Count = int64(len(tail))
	return nil
}

func (v *Volume) openIndexes() error {
	for _, tag := range []string{index.TagPOSIX, "PDIR"} {
		pno, err := v.catalogGet("idx/" + tag + "/0")
		if err != nil {
			return err
		}
		kv, err := index.OpenKVIndex(tag, v.pg, v.ba, pno)
		if err != nil {
			return err
		}
		v.kvTrees = append(v.kvTrees, kv.Tree())
		v.registry.Register(kv)
	}
	for _, tag := range []string{index.TagUser, index.TagUDef, index.TagApp} {
		var shards []index.Store
		for i := 0; ; i++ {
			pno, err := v.catalogGet(fmt.Sprintf("idx/%s/%d", tag, i))
			if errors.Is(err, btree.ErrNotFound) {
				break
			}
			if err != nil {
				return err
			}
			kv, err := index.OpenKVIndex(tag, v.pg, v.ba, pno)
			if err != nil {
				return err
			}
			v.kvTrees = append(v.kvTrees, kv.Tree())
			shards = append(shards, kv)
		}
		if len(shards) == 0 {
			return fmt.Errorf("%w: no shards for %s", ErrBadSuperblock, tag)
		}
		if len(shards) == 1 {
			v.registry.Register(shards[0].(*index.KVIndex))
		} else {
			v.registry.Register(index.NewSharded(tag, shards))
		}
	}
	ftPno, err := v.catalogGet("ft")
	if err != nil {
		return err
	}
	ftIdx, err := fulltext.Open(v.pg, v.ba, ftPno, v.fulltextConfig())
	if err != nil {
		return err
	}
	v.ft = index.NewFulltext(ftIdx)
	v.registry.Register(v.ft)

	imgPno, err := v.catalogGet("img")
	if err != nil {
		return err
	}
	v.img, err = index.OpenImageIndex(v.pg, v.ba, imgPno)
	if err != nil {
		return err
	}
	v.registry.Register(v.img)
	return nil
}

// sysAppender routes structure-modification system transactions from the
// pager's op captures into the WAL. A full log is not an error here: the
// WAL wedges (no later commit can land) and the checkpoint it marks due
// writes the modification home — run by the enclosing operation once it
// leaves the fence, or by its commit's ErrFull fallback.
type sysAppender struct{ v *Volume }

func (a sysAppender) AppendSystem(recs []redo.Record) error {
	err := a.v.log.AppendSystem(recs)
	if errors.Is(err, wal.ErrFull) {
		a.v.ckptDue.Store(true)
		return nil
	}
	return err
}

// Wedge implements pager.Appender: fail-stop the log until a checkpoint
// (used when a base image could not be captured), and mark that
// checkpoint due.
func (a sysAppender) Wedge() {
	a.v.log.Wedge()
	a.v.ckptDue.Store(true)
}

// fulltextConfig is the user's fulltext tuning plus the volume's
// operation bracket, so the lazy indexer's background page writes commit
// (and respect the checkpoint fence) like any foreground operation.
func (v *Volume) fulltextConfig() fulltext.Config {
	cfg := v.opts.FulltextConfig
	cfg.Bracket = v.withOp
	return cfg
}

// withOp runs fn as one mutating operation. fn receives the operation's
// physiological redo capture and threads it through every page mutation;
// its result decides the operation's fate. Nil commits the captured
// records as one transaction through the WAL's group committer; an error
// rolls the operation back through its captured inverses and is
// returned. The commit is withOp's own epilogue, so no path through fn
// can leave the bracket — and the checkpoint fence it holds — open.
//
// Brackets must not nest (see ckptMu); compound operations call the
// Deferred variants of sub-operations inside a single fn.
//
// A degraded volume refuses the bracket before fn runs — mutations must
// not half-apply against a log that cannot commit them — unless this call
// claims the due retry (healIfDue) and its checkpoint succeeds.
func (v *Volume) withOp(fn func(*pager.Op) error) error {
	if !v.healIfDue() {
		return ErrReadOnly
	}
	v.ckptMu.RLock()
	op := v.pg.NewOp(sysAppender{v})
	if opErr := fn(op); opErr != nil {
		// Roll the failed operation back: its captured inverses run
		// newest-first as CLRs and commit together with the original
		// records — a net no-op under replay. (If an inverse fails,
		// abortOp degrades to committing the partial state.)
		cerr := v.abortOp(op)
		v.ckptMu.RUnlock()
		if errors.Is(cerr, wal.ErrFull) {
			_ = v.checkpointNow()
		}
		v.checkpointIfDue()
		return opErr
	}
	err := v.commitOp(op)
	if err == nil {
		err = v.runDeferred(op)
	}
	v.ckptMu.RUnlock()
	if errors.Is(err, wal.ErrFull) {
		// This transaction alone cannot fit the remaining log region (or
		// the log wedged behind an unlogged structure modification). Fall
		// back to a full checkpoint — after releasing the shared fence:
		// checkpointNow quiesces all operations first, so it never
		// flushes a neighbour's mid-operation pages home nor resets the
		// log while a concurrent group commit is being acknowledged.
		// Afterwards this operation's pages are durably home and the
		// commit is moot. This is the log-capacity escape; the
		// cache-capacity fallback it used to share a path with is gone —
		// steal bounds a transaction by the log, not the cache.
		v.ckptFallbacks.Add(1)
		return v.checkpointNow()
	}
	v.checkpointIfDue()
	return err
}

// checkpointIfDue runs the checkpoint a commit or a full log marked due,
// if no other operation has claimed it, after the caller has left the
// fence — as the ErrFull fallback does. The operation's outcome stands
// either way: a failed checkpoint latches the volume degraded, and the
// first mutation or Health call after the backoff retries it (healIfDue).
func (v *Volume) checkpointIfDue() {
	if v.ckptDue.CompareAndSwap(true, false) {
		_ = v.checkpointNow()
	}
}

// healIfDue reports whether the volume is healthy, retrying the failed
// checkpoint first if the volume is degraded and its backoff has elapsed
// on opts.Clock. Of the callers that find the retry due, the one whose
// CAS claims it runs the checkpoint; the others see it not due. The
// caller must hold no checkpoint fence.
func (v *Volume) healIfDue() bool {
	if !v.degraded.Load() {
		return true
	}
	at := v.retryAt.Load()
	if v.opts.Clock().UnixNano() < at || !v.retryAt.CompareAndSwap(at, math.MaxInt64) {
		return !v.degraded.Load() // a claimed retry may just have healed it
	}
	return v.checkpointNow() == nil
}

// runDeferred runs what op registered with Defer once its commit is
// durable: deferred structural rebalancing (see btree.DeleteOp) and the
// cache teardown of destroyed structures, each as a system transaction of
// its own, still inside the checkpoint fence. Staged records are appended
// even when a rebalance fails part-way — they describe mutations already
// applied in cache, and dropping them would leave later commits building
// on an unlogged structure change.
func (v *Volume) runDeferred(op *pager.Op) error {
	var err error
	for _, fn := range op.Deferred() {
		sys := op.NewSys()
		rerr := fn(sys)
		aerr := sys.AppendSys()
		if err == nil && rerr != nil {
			err = rerr
		}
		if err == nil && aerr != nil {
			err = aerr
		}
	}
	return err
}

// CheckpointFallbacks reports how many commits fell back to a full
// checkpoint on wal.ErrFull (see withOp). TestBatchBeyondCacheSteals
// asserts this stays zero for dirty sets larger than the cache.
func (v *Volume) CheckpointFallbacks() int64 { return v.ckptFallbacks.Load() }

// commitOp makes one operation's redo records durable through the group
// committer: the records reach the log as one commit frame in a
// contiguous append shared with concurrent committers, under a single
// device sync. Replay order is governed by the records' mutation-time
// LSNs, not commit order, so no close/enqueue atomicity dance is needed.
// Pages are not forced home (no-force); checkpoints write them back in
// bulk. Returns wal.ErrFull (for the bracket's checkpoint fallback) when
// the records cannot fit the region.
func (v *Volume) commitOp(op *pager.Op) error {
	return v.commitOpChain(op, 0)
}

// commitOpChain is commitOp with an explicit chunk-chain override:
// recovery's undo pass commits each loser chain's compensations naming
// the *loser's* tail (resolving the chain) rather than the op's own.
// The sequence closes every steal-related race: dependencies flush
// first (so this commit's group sync covers any neighbour records its
// pages build on), then the op is sealed — pending records snapshotted
// and further chunk flushes fenced off atomically, so a concurrent
// steal cannot double-log them — and only after the commit's outcome is
// known does FinishOp release the op's pages for eviction.
func (v *Volume) commitOpChain(op *pager.Op, chain uint64) error {
	v.pg.FlushOpDeps(op)
	recs, last := v.pg.SealOp(op)
	if chain == 0 {
		chain = last
	}
	if len(recs) == 0 && chain == 0 {
		v.pg.FinishOp(op, false)
		return nil
	}
	wtx := v.log.Begin()
	for _, r := range recs {
		wtx.LogRecord(r)
	}
	wtx.SetChain(chain)
	if err := wtx.Commit(); err != nil {
		v.pg.FinishOp(op, false)
		return err
	}
	v.pg.FinishOp(op, true)
	v.maybeTriggerCheckpoint()
	return nil
}

// maybeTriggerCheckpoint marks a checkpoint due when the log passes its
// high-water mark, or when deferred frees pile up past the cache's size.
// Dirty pages need no trigger of their own: steal eviction bounds
// residency. The committing operation runs the checkpoint (withOp), so
// it happens at the commit that crossed the mark, and the same workload
// checkpoints at the same points on every run.
func (v *Volume) maybeTriggerCheckpoint() {
	logHigh := v.log.Used()*ckptHighWaterDen >= v.log.Capacity()*ckptHighWaterNum
	limboHigh := v.ba.LimboBlocks() >= uint64(v.opts.CachePages)
	if logHigh || limboHigh {
		v.ckptDue.Store(true)
	}
}

// checkpointNow quiesces mutating operations (checkpoint fence), writes
// every committed-but-cached page home plus the checksum sidecar, syncs
// the device, and resets the log behind an LSN fence (the volume's
// current LSN: every record of the next generation is stamped above it,
// so recovery can reject stale-generation leftovers outright). The
// operation fence guarantees no operation is mid-flight, so everything
// dirty in the cache is committed state — and every deferred page free
// can finally be released for reuse.
//
// Failure latches the volume degraded (read-only) and sets when the retry
// is due: ckptRetryMin after the first failure, doubling with each
// further one up to ckptRetryMax. Success lifts the state and resets the
// backoff. Nothing retries on its own: the retry waits for the next
// mutation or Health call (healIfDue).
func (v *Volume) checkpointNow() error {
	v.ckptMu.Lock()
	defer v.ckptMu.Unlock()
	if err := v.doCheckpoint(); err != nil {
		v.ckptFailures.Add(1)
		v.retryWait = min(max(2*v.retryWait, ckptRetryMin), ckptRetryMax)
		// retryAt before degraded: whoever sees the latch sees its time.
		v.retryAt.Store(v.opts.Clock().Add(v.retryWait).UnixNano())
		v.degraded.Store(true)
		return err
	}
	v.retryWait = 0
	v.degraded.Store(false)
	return nil
}

// doCheckpoint is checkpointNow's work, under the exclusive fence.
func (v *Volume) doCheckpoint() error {
	v.ckptDue.Store(false)
	// Write-ahead: what the log holds for the pages about to go home —
	// system transactions and chunks still in its staging block included —
	// is durable before the first of them is written.
	if err := v.log.Sync(); err != nil {
		return err
	}
	if err := v.pg.FlushDirty(); err != nil {
		return err
	}
	// The sidecar goes out under the same sync: after the checkpoint is
	// durable, every home page matches its durable sum (see csum.go).
	if err := v.flushPageSums(); err != nil {
		return err
	}
	// So does the allocator snapshot, stamped with the fence the log is
	// about to be reset behind, into the slot the generation being closed
	// does not depend on — or, when it has outgrown a slot, the wipe of
	// both (allocsnap.go). No operation is in flight, so the allocator is
	// exactly what the flushed pages own, once limbo is counted free.
	fence := v.pg.CurrentLSN()
	slot, err := v.writeAllocSlot(fence)
	if err != nil {
		return err
	}
	if err := v.cdev.Sync(); err != nil {
		return err
	}
	if err := v.log.Checkpoint(fence); err != nil {
		return err
	}
	if slot >= 0 {
		v.snapCur = slot
	}
	return v.ba.ReleaseLimbo()
}

// Health is a point-in-time snapshot of the volume's fault state.
type Health struct {
	// Degraded: mutations fail fast with ErrReadOnly; reads keep serving
	// until a mutation or Health call retries the checkpoint and it
	// succeeds.
	Degraded bool
	// WALWedged: the log refuses appends until a checkpoint clears it.
	WALWedged bool
	// CheckpointFailures counts failed checkpoints since open.
	CheckpointFailures int64
	// CorruptReads counts reads that failed checksum verification.
	CorruptReads int64
}

// Health reports the volume's degraded/wedged state and fault counters.
// On an open degraded volume whose retry backoff has elapsed it first
// retries the checkpoint, as a mutation would: an idle volume heals when
// its health is next asked for, not on its own.
func (v *Volume) Health() Health {
	if unlock, err := v.rlock(); err == nil {
		v.healIfDue()
		unlock()
	}
	return Health{
		Degraded:           v.degraded.Load(),
		WALWedged:          v.log.Wedged(),
		CheckpointFailures: v.ckptFailures.Load(),
		CorruptReads:       v.cdev.corrupt.Load(),
	}
}

// Degraded reports whether the volume is in read-only degraded mode.
func (v *Volume) Degraded() bool { return v.degraded.Load() }

// DataRegion reports the checksummed data region as [start, start+blocks)
// absolute block numbers (fault-injection harnesses target it).
func (v *Volume) DataRegion() (start, blocks uint64) { return v.dataStart, v.dataBlocks }

// Allocator exposes the buddy allocator (experiments, fsck).
func (v *Volume) Allocator() *buddy.Allocator { return v.ba }

// Pager exposes the buffer cache (experiments, fsck).
func (v *Volume) Pager() *pager.Pager { return v.pg }

// WAL returns the volume's write-ahead log.
func (v *Volume) WAL() *wal.Log { return v.log }

// Registry exposes the index-store registry (plug-in extension point).
func (v *Volume) Registry() *index.Registry { return v.registry }

// Fulltext returns the full-text adapter (for lazy indexing control).
func (v *Volume) Fulltext() *index.Fulltext { return v.ft }

// Images returns the image plug-in index.
func (v *Volume) Images() *index.ImageIndex { return v.img }

// Sync flushes all state to the device without closing. It is a
// checkpoint: it quiesces mutating operations, writes every cached dirty
// page home, syncs the device, and resets the log (committed state was
// already durable via the WAL; after Sync it is durable in place).
func (v *Volume) Sync() error { return v.checkpointNow() }

// Close cleanly shuts the volume down: checkpoint — which leaves an
// allocator snapshot slot describing the result — then mark clean. The
// volume must not be used afterwards.
func (v *Volume) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil
	}
	if err := v.ft.Inner().Close(); err != nil && !errors.Is(err, fulltext.ErrClosed) {
		return err
	}
	if err := v.Sync(); err != nil {
		return err
	}
	if err := v.writeSuperblock(true); err != nil {
		return err
	}
	if err := v.cdev.Sync(); err != nil {
		return err
	}
	v.closed = true
	return nil
}
