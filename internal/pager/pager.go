// Package pager provides a buffer cache of device blocks (pages) shared by
// the B-tree, extent-tree, and WAL layers.
//
// Pages are pinned while in use; unpinned pages live on an LRU list and are
// evicted under memory pressure, with dirty pages written back first. When a
// write-ahead log governs the volume, the pager runs a *steal* policy with
// WAL-before-data: a dirty page — even one carrying uncommitted edits — may
// be written home by eviction once every record staged against it (redo and
// undo) is durably in the log. Open operations' staged records are flushed
// to the log as mid-transaction chunks (EnableSteal) to unblock eviction;
// recovery repeats history from the log and rolls losers back through their
// undo records. Without a chunk appender the pager degrades to no-steal:
// dirty pages are only written home by FlushDirty at checkpoint.
//
// The cache is internally sharded by page number: a single global mutex
// would serialize every component that touches a page, re-creating exactly
// the shared hotspot the paper's §2.3 complains about one layer down.
// Experiment E8 measures the index-store sharding that this makes visible.
package pager

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blockdev"
	"repro/internal/redo"
)

// Pager errors.
var (
	ErrCacheFull = errors.New("pager: cache full of pinned or unevictable pages")
	ErrPinned    = errors.New("pager: page still pinned")
	ErrBadPage   = errors.New("pager: bad page number")
)

// numShards partitions the page table; a power of two so the modulo is a
// mask. 16 is comfortably above any host core count we target.
const numShards = 16

// Page is a cached device block. Callers access Data only between Acquire
// and Release, and only under whatever higher-level latch (e.g. the B-tree
// lock) guards the page's structure.
type Page struct {
	no    uint64
	data  []byte
	pins  int
	dirty bool
	elem  *list.Element // position in LRU when unpinned
	// busy is non-nil while the initial device read is filling data. The
	// page is published in the shard table before the read so concurrent
	// acquirers of the same block find it and wait instead of pinning a
	// half-filled page; busy is closed (under the shard lock being
	// released) once the fill completes or fails.
	busy chan struct{}
	// fresh marks a page created by AcquireZero that has never been
	// written home: its home content is garbage and its final state is
	// fully determined by its redo records, so it needs no base image.
	// Cleared on first writeback.
	fresh bool
	// lsn is the pageLSN: the LSN of the last redo record stamped for
	// this page (under the shard latch in MarkDirtyRec). Replay is ordered
	// by these LSNs, which makes it idempotent and makes the per-page
	// record order equal the order the bytes actually changed.
	lsn atomic.Uint64
	// unflushed counts records staged against this page (including its
	// base image) whose log append has not completed yet; guarded by the
	// shard lock. A page with unflushed > 0 must not be stolen — writing
	// it home would put unlogged bytes under a WAL that cannot redo or
	// undo them.
	unflushed int
	// appendSeq is the pager append sequence covering the page's last
	// log append; steal additionally requires appendSeq <= syncedSeq
	// (the appends are not just issued but durable). Shard-lock guarded.
	appendSeq uint64
	// lastXop is the op that last staged an extent-typed record on this
	// page. Extent records are index-addressed within the page, so a
	// second op staging one here picks the first up as a flush
	// dependency: its records must reach the log (as a chunk) before the
	// second op's commit, or replay would re-execute the committed
	// records against cell positions missing the neighbour's.
	// Shard-lock guarded; may point at a finished op (flush no-ops).
	lastXop *Op
}

// No returns the page's block number.
func (p *Page) No() uint64 { return p.no }

// LSN returns the pageLSN — the LSN of the last redo record stamped for
// this page (0 if none this session).
func (p *Page) LSN() uint64 { return p.lsn.Load() }

// Data returns the page contents. The slice is valid only while pinned.
func (p *Page) Data() []byte { return p.data }

// Stats describes cache effectiveness.
type Stats struct {
	Hits         int64
	Misses       int64
	Evictions    int64
	Writebacks   int64
	Steals       int64 // dirty pages evicted under WAL-before-data gating
	ChunkFlushes int64 // mid-transaction chunk appends issued for steal/deps
	Cached       int
	Dirty        int
}

type shard struct {
	mu    sync.Mutex
	table map[uint64]*Page
	lru   *list.List // of *Page, front = most recent
	dirty map[uint64]*Page

	hits, misses, evictions, writebacks int64
}

// Pager is a fixed-capacity buffer cache over a block device.
type Pager struct {
	dev         blockdev.Device
	capPerShard int
	evictDirty  bool
	shards      [numShards]shard

	// Open dirty-capture transactions (see BeginTxn). ntxns mirrors
	// len(txns) so MarkDirty can skip the registry entirely when no
	// capture is open (the non-transactional hot path).
	txnMu sync.Mutex
	txns  map[*Txn]struct{}
	ntxns atomic.Int32

	// ndirty counts dirty cached pages, maintained at every transition
	// so DirtyCount is lock-free — the volume consults it per commit to
	// decide when the no-steal cache needs a checkpoint to drain.
	ndirty atomic.Int64

	// lsn is the volume-wide LSN counter for physiological logging.
	// Records are stamped from it at mutation time, inside the page's
	// shard latch, so per-page LSN order equals byte-mutation order.
	// Seeded past the recovered maximum on open so LSNs stay monotonic
	// across log generations (the checkpoint fence depends on it).
	lsn atomic.Uint64

	// baseApp, when set, receives a first-touch *base image* system
	// record whenever a home-backed page transitions clean → dirty: the
	// page's home content (read back from the device — the mutator's pin
	// blocks eviction for the whole capture, and a previously stolen
	// page's home state is itself base + logged records, so the image
	// never contains unlogged bytes) logged before the generation's
	// first edit record. Replay then rebuilds every touched page from
	// the log alone, which makes physiological recovery idempotent — a
	// crash during or just after a checkpoint's page flush (home pages
	// already post-state, or torn mid-write) replays to the same final
	// state instead of re-executing splits over already-split pages.
	baseApp Appender

	// stealApp, when set (EnableSteal), receives mid-transaction chunk
	// appends: the staged records of open operations, flushed early so
	// the dirty pages they cover become stealable. undoOn additionally
	// enables logical-inverse capture (Op.StageUndo) so flushed-but-
	// uncommitted operations can be rolled back.
	stealApp ChunkAppender
	undoOn   bool

	// Open per-operation captures, enumerated by steal flush rounds.
	// Only regular ops register; system transactions must stay atomic
	// (they auto-commit via AppendSys) and are never chunk-flushed.
	opMu  sync.Mutex
	ops   map[*Op]struct{}
	opSeq atomic.Uint64 // source of Op.ID

	// appendSeq counts completed log appends that covered page records;
	// syncedSeq is the latest value known covered by a device sync.
	// Steal requires a page's appendSeq <= syncedSeq.
	appendSeq atomic.Uint64
	syncedSeq atomic.Uint64

	// stealMu serializes steal flush rounds (one flush+sync unblocks
	// every waiting shard; a herd of them would each pay a sync).
	stealMu sync.Mutex

	steals       atomic.Int64
	chunkFlushes atomic.Int64
}

// ChunkAppender appends the staged records of one open transaction as a
// mid-transaction chunk chained after prev (0 = first), returning the
// chunk's log transaction id. The volume wires it to wal.AppendChunk.
type ChunkAppender interface {
	AppendChunk(prev uint64, recs []redo.Record) (uint64, error)
}

// New creates a pager over dev caching up to capacity pages.
// evictDirty selects steal (true) or no-steal (false) eviction policy.
func New(dev blockdev.Device, capacity int, evictDirty bool) *Pager {
	if capacity < numShards*4 {
		capacity = numShards * 4
	}
	p := &Pager{
		dev:         dev,
		capPerShard: capacity / numShards,
		evictDirty:  evictDirty,
	}
	for i := range p.shards {
		p.shards[i].table = make(map[uint64]*Page)
		p.shards[i].lru = list.New()
		p.shards[i].dirty = make(map[uint64]*Page)
	}
	p.txns = make(map[*Txn]struct{})
	p.ops = make(map[*Op]struct{})
	return p
}

// EnableSteal installs the chunk appender and switches eviction to the
// ARIES steal policy: an uncommitted dirty page may be written home once
// its staged records are durably logged; open operations' records are
// chunk-flushed on demand to get them there.
func (p *Pager) EnableSteal(app ChunkAppender) { p.stealApp = app }

// EnableUndo turns on logical-inverse capture: structure layers' calls
// to Op.StageUndo record inverses so operations can be rolled back at
// abort (and flushed-but-uncommitted losers at recovery).
func (p *Pager) EnableUndo() { p.undoOn = true }

func (p *Pager) shardOf(no uint64) *shard {
	return &p.shards[no&(numShards-1)]
}

// BlockSize returns the underlying device block size.
func (p *Pager) BlockSize() int { return p.dev.BlockSize() }

// Device returns the underlying device.
func (p *Pager) Device() blockdev.Device { return p.dev }

// Acquire returns the page pinned, reading it from the device on a miss.
func (p *Pager) Acquire(no uint64) (*Page, error) {
	return p.acquire(no, true)
}

// AcquireZero returns the page pinned with zeroed contents and does not
// read the device. For freshly allocated pages whose on-device content is
// garbage.
func (p *Pager) AcquireZero(no uint64) (*Page, error) {
	pg, err := p.acquire(no, false)
	if err != nil {
		return nil, err
	}
	s := p.shardOf(no)
	s.mu.Lock()
	pg.fresh = true
	s.mu.Unlock()
	for i := range pg.data {
		pg.data[i] = 0
	}
	return pg, nil
}

func (p *Pager) acquire(no uint64, read bool) (*Page, error) {
	if no >= p.dev.NumBlocks() {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadPage, no, p.dev.NumBlocks())
	}
	s := p.shardOf(no)
	stealTried := false
	for {
		s.mu.Lock()
		if pg, ok := s.table[no]; ok {
			if pg.busy != nil {
				// Another acquirer is still filling this page from the
				// device. Wait for the fill to settle, then retry the
				// lookup from scratch: on success we take the hit path;
				// on failure the page is gone from the table and we
				// perform (and report) our own read.
				busy := pg.busy
				s.mu.Unlock()
				<-busy
				continue
			}
			s.hits++
			if pg.elem != nil {
				s.lru.Remove(pg.elem)
				pg.elem = nil
			}
			pg.pins++
			s.mu.Unlock()
			return pg, nil
		}
		s.misses++
		needSteal, err := p.makeRoomLocked(s)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if needSteal && !stealTried {
			// Every unpinned page is dirty with records not yet durably
			// logged. Flush the open operations' staged records as chunks
			// and sync, then retry — the pages become stealable.
			s.misses-- // the retry re-counts
			s.mu.Unlock()
			stealTried = true
			p.stealFlush()
			continue
		}
		pg := &Page{no: no, data: make([]byte, p.dev.BlockSize()), pins: 1}
		if read {
			pg.busy = make(chan struct{})
		}
		s.table[no] = pg
		s.mu.Unlock()

		if !read {
			return pg, nil
		}
		err = p.dev.ReadBlock(no, pg.data)
		s.mu.Lock()
		if err != nil {
			// The page never became valid: withdraw it. It was pinned
			// for the whole window (so eviction and Invalidate ignored
			// it) and waiters were parked on busy (so no one else holds
			// a pin), which keeps the shard's capacity accounting exact.
			delete(s.table, no)
		}
		busy := pg.busy
		pg.busy = nil
		s.mu.Unlock()
		close(busy)
		if err != nil {
			return nil, err
		}
		return pg, nil
	}
}

// makeRoomLocked evicts unpinned pages while the shard is at capacity.
// It returns needSteal=true when the shard stays over capacity only
// because dirty pages are gated on un-durable log records — the caller
// should run a steal flush (outside the shard lock) and retry. With no
// eligible victim and no steal appender it returns (false, nil): grow
// rather than fail — capacity is advisory, correctness is not.
func (p *Pager) makeRoomLocked(s *shard) (bool, error) {
	synced := p.syncedSeq.Load()
	for len(s.table) >= p.capPerShard {
		var victim *Page
		for e := s.lru.Back(); e != nil; e = e.Prev() {
			pg := e.Value.(*Page)
			if pg.dirty && !p.evictDirty {
				// Steal gate: every staged record durably logged.
				if p.stealApp == nil || pg.unflushed > 0 || pg.appendSeq > synced {
					continue
				}
			}
			victim = pg
			break
		}
		if victim == nil {
			return p.stealApp != nil, nil
		}
		if victim.dirty {
			if err := p.dev.WriteBlock(victim.no, victim.data); err != nil {
				return false, err
			}
			s.writebacks++
			if !p.evictDirty {
				p.steals.Add(1)
			}
			victim.dirty = false
			victim.fresh = false
			victim.unflushed = 0
			delete(s.dirty, victim.no)
			p.ndirty.Add(-1)
		}
		s.lru.Remove(victim.elem)
		victim.elem = nil
		delete(s.table, victim.no)
		s.evictions++
	}
	return false, nil
}

// stealFlush makes every open operation's staged records durable —
// chunk-appending the pending ones, then syncing the device — so dirty
// pages gated on them become stealable. One round serves all shards.
func (p *Pager) stealFlush() {
	if p.stealApp == nil {
		return
	}
	p.stealMu.Lock()
	defer p.stealMu.Unlock()
	p.opMu.Lock()
	ops := make([]*Op, 0, len(p.ops))
	for op := range p.ops {
		ops = append(ops, op)
	}
	p.opMu.Unlock()
	for _, op := range ops {
		_, _ = p.flushOpChunk(op)
	}
	seq := p.appendSeq.Load()
	if p.syncedSeq.Load() < seq {
		if err := p.dev.Sync(); err != nil {
			return
		}
		for {
			cur := p.syncedSeq.Load()
			if cur >= seq || p.syncedSeq.CompareAndSwap(cur, seq) {
				break
			}
		}
	}
}

// flushOpChunk appends op's pending staged records (redo and undo) to
// the log as one chunk, chained after the op's previous chunk. The op's
// lock is held across the append so the flushed prefix bookkeeping stays
// exact. System transactions are never chunk-flushed — they must land
// atomically via AppendSys or not at all.
func (p *Pager) flushOpChunk(op *Op) (int, error) {
	op.mu.Lock()
	defer op.mu.Unlock()
	if op.sys || op.clr || op.finished || op.nflushed >= len(op.recs) {
		// CLR-mode ops are excluded like system transactions: a rollback's
		// compensations reach the log only with the rollback's own commit,
		// so a crash mid-undo drops the whole compensation and recovery
		// restarts the undo from scratch — without this, replayed partial
		// CLRs plus a re-run of the chain's undo records would apply
		// non-idempotent inverses twice.
		return 0, nil
	}
	pending := op.recs[op.nflushed:]
	id, err := p.stealApp.AppendChunk(op.lastChunk, pending)
	if err != nil {
		return 0, err
	}
	op.lastChunk = id
	op.nflushed = len(op.recs)
	p.chunkFlushes.Add(1)
	seq := p.appendSeq.Add(1)
	for _, r := range pending {
		if gatesPage(r.Kind) {
			p.noteAppended(r.Page, seq)
		}
	}
	return len(pending), nil
}

// gatesPage reports whether a staged record of this kind raised its
// page's unflushed gate (markDirtyStamp did): undo records and allocator
// records name no cached page.
func gatesPage(kind uint8) bool {
	k := redo.BaseKind(kind)
	return k != redo.KindUndo && k != redo.KindAlloc
}

// noteAppended records that one staged record of page no reached the log
// in the append numbered seq.
func (p *Pager) noteAppended(no, seq uint64) {
	s := p.shardOf(no)
	s.mu.Lock()
	if pg, ok := s.table[no]; ok {
		if pg.unflushed > 0 {
			pg.unflushed--
		}
		if seq > pg.appendSeq {
			pg.appendSeq = seq
		}
	}
	s.mu.Unlock()
}

// Release unpins the page. Pages must be released exactly once per Acquire.
func (p *Pager) Release(pg *Page) {
	s := p.shardOf(pg.no)
	s.mu.Lock()
	defer s.mu.Unlock()
	if pg.pins <= 0 {
		panic("pager: release of unpinned page")
	}
	pg.pins--
	if pg.pins == 0 {
		pg.elem = s.lru.PushFront(pg)
	}
}

// MarkDirty records that the page's contents have been modified.
// The page must be pinned.
func (p *Pager) MarkDirty(pg *Page) {
	s := p.shardOf(pg.no)
	s.mu.Lock()
	if pg.pins <= 0 {
		s.mu.Unlock()
		panic("pager: MarkDirty on unpinned page")
	}
	base := p.setDirtyLocked(s, pg)
	s.mu.Unlock()
	if p.appendBase(base) && p.stealApp != nil {
		p.noteAppended(pg.no, p.appendSeq.Add(1))
	}
	p.noteDirty(pg)
}

// EnableBaseImages turns on first-touch base-image logging (see the
// baseApp field). The volume installs it on physiological-logging
// volumes once the device state is a clean generation boundary.
func (p *Pager) EnableBaseImages(app Appender) { p.baseApp = app }

// setDirtyLocked performs the clean→dirty transition under the shard
// lock, returning the base-image record to append (nil if none needed).
func (p *Pager) setDirtyLocked(s *shard, pg *Page) *redo.Record {
	if pg.dirty {
		return nil
	}
	pg.dirty = true
	s.dirty[pg.no] = pg
	p.ndirty.Add(1)
	if p.baseApp == nil || pg.fresh {
		return nil
	}
	// Draw the base's LSN inside the latch so it sorts below every edit
	// of the generation; the home read itself happens outside the shard
	// lock (appendBase) — safe because the caller's pin blocks eviction,
	// so nothing writes the home copy during the capture, and checkpoints
	// are fenced out for the mutator's whole bracket. Under steal the
	// page is gated until the base append is durable (unflushed below).
	if p.stealApp != nil {
		pg.unflushed++
	}
	return &redo.Record{LSN: p.lsn.Add(1), Page: pg.no, Kind: redo.KindImage}
}

// appendBase reads the page's home content (its pre-mutation state — the
// clean cache copy equaled it until the edit now being marked) and ships
// it as a first-touch base-image system transaction, reporting whether
// the append succeeded. Failures wedge the log: no commit may be
// acknowledged durable while a touched page has no recoverable base; a
// failed append also leaves the page's unflushed count raised, so steal
// can never write the unprotected page home.
func (p *Pager) appendBase(base *redo.Record) bool {
	if base == nil {
		return false
	}
	home := make([]byte, p.dev.BlockSize())
	if err := p.dev.ReadBlock(base.Page, home); err != nil {
		p.baseApp.Wedge()
		return false
	}
	base.Data = home
	return p.baseApp.AppendSystem([]redo.Record{*base}) == nil
}

// --- physiological per-operation redo capture ---

// SeedLSN advances the LSN counter to at least v (recovery seeds it past
// the last recovered record so LSNs stay monotonic across generations).
func (p *Pager) SeedLSN(v uint64) {
	for {
		cur := p.lsn.Load()
		if cur >= v || p.lsn.CompareAndSwap(cur, v) {
			return
		}
	}
}

// CurrentLSN returns the last LSN issued.
func (p *Pager) CurrentLSN() uint64 { return p.lsn.Load() }

// Appender is where system transactions (structure modifications that
// must be redone regardless of the enclosing operation's fate — splits,
// merges, base images) are appended. The volume wires it to the WAL.
// Wedge disables the log until a checkpoint — the fail-stop escape when
// a protective record cannot be produced at all.
type Appender interface {
	AppendSystem(recs []redo.Record) error
	Wedge()
}

// Op captures the redo records of one mutating operation. Structure
// layers emit typed and byte-range records through MarkDirtyRec as they
// mutate pages, and logical inverses through StageUndo; the volume
// stages the collected redo records as one WAL transaction at commit (or
// executes the inverses and commits the compensations at abort). A nil
// *Op is accepted everywhere and means "unlogged" (non-transactional
// volume, or the page-image logging mode where the broadcast Txn capture
// below does the work instead).
type Op struct {
	p   *Pager
	app Appender
	id  uint64 // see ID

	mu       sync.Mutex
	recs     []redo.Record // redo and undo records, staging (= LSN) order
	deferred []func(*Op) error

	// ARIES bookkeeping (meaningful only with EnableSteal/EnableUndo):
	nflushed  int              // prefix of recs already chunk-appended to the log
	lastChunk uint64           // txid of the op's last flushed chunk (0 = none)
	undoPrev  uint64           // LSN of the last staged undo record (prevLSN chain)
	deps      map[*Op]struct{} // ops whose records must be logged before this commit
	sys       bool             // system transaction: atomic via AppendSys, never chunked
	clr       bool             // rolling back: records are CLRs, no further undo capture
	noUndo    int              // >0 suppresses undo capture (non-undoable sections)
	finished  bool             // sealed: no further chunk flush may take its records
	closed    bool             // FinishOp ran (finishCh closed)
	finishCh  chan struct{}    // closed by FinishOp; dependency flushes wait on it
}

// NewOp opens a per-operation redo capture. app receives system
// transactions emitted by structure-modification operations inside this
// op; it may be nil only if the op never mutates structured trees.
func (p *Pager) NewOp(app Appender) *Op {
	op := &Op{p: p, app: app, id: p.opSeq.Add(1), finishCh: make(chan struct{})}
	if p.stealApp != nil {
		p.opMu.Lock()
		p.ops[op] = struct{}{}
		p.opMu.Unlock()
	}
	return op
}

// ID identifies the operation among those of its pager (never 0; 0 for
// a nil op). A structure remembers the ID of the operation that created
// it: until that operation commits, nothing else can reach the structure
// (see allocOp in btree and extent). Nil-safe.
func (op *Op) ID() uint64 {
	if op == nil {
		return 0
	}
	return op.id
}

// NewSys opens a capture for a system transaction nested in op (records
// staged into it are appended immediately via AppendSys, not at the
// enclosing commit). Nil-safe.
func (op *Op) NewSys() *Op {
	if op == nil {
		return nil
	}
	return &Op{p: op.p, app: op.app, sys: true}
}

// AppendSys appends the op's staged records as one auto-committed system
// transaction. Used for structure modifications: the records reach the
// log (unsynced — the next group sync or checkpoint makes them durable
// before anything that depends on them) ahead of any commit that builds
// on the modified structure. Nil-safe.
func (op *Op) AppendSys() error {
	if op == nil {
		return nil
	}
	op.mu.Lock()
	recs := op.recs
	op.recs = nil
	op.nflushed = 0
	op.mu.Unlock()
	if len(recs) == 0 {
		return nil
	}
	err := op.app.AppendSystem(recs)
	if err == nil && op.p.stealApp != nil {
		seq := op.p.appendSeq.Add(1)
		for _, r := range recs {
			if gatesPage(r.Kind) {
				op.p.noteAppended(r.Page, seq)
			}
		}
	}
	return err
}

// Records returns the staged records not yet flushed as chunks, redo
// only, in staging (= LSN) order — exactly what the commit must append.
// The op keeps its bookkeeping; the volume closes it with FinishOp once
// the commit's outcome is known.
func (op *Op) Records() []redo.Record {
	op.mu.Lock()
	defer op.mu.Unlock()
	pending := op.recs[op.nflushed:]
	out := make([]redo.Record, 0, len(pending))
	for _, r := range pending {
		if redo.BaseKind(r.Kind) == redo.KindUndo {
			continue
		}
		out = append(out, r)
	}
	return out
}

// SealOp atomically snapshots the op's pending redo records for its
// commit and marks the op finished, so a concurrent steal or dependency
// flush cannot append the same records as a chunk while the commit is in
// flight (which would replay them twice). Returns the pending records
// and the op's last chunk id; the caller completes with FinishOp once
// the commit's outcome is known.
func (p *Pager) SealOp(op *Op) ([]redo.Record, uint64) {
	op.mu.Lock()
	defer op.mu.Unlock()
	pending := op.recs[op.nflushed:]
	out := make([]redo.Record, 0, len(pending))
	for _, r := range pending {
		if redo.BaseKind(r.Kind) == redo.KindUndo {
			continue
		}
		out = append(out, r)
	}
	op.finished = true
	return out, op.lastChunk
}

// LastChunk returns the txid of the op's last flushed chunk (0 if its
// records never left the op before commit). The volume passes it to the
// commit's SetChain so recovery resolves the chunk chain. Nil-safe.
func (op *Op) LastChunk() uint64 {
	if op == nil {
		return 0
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	return op.lastChunk
}

// StageUndo captures the logical inverse of the mutation about to be
// performed. body is an encoding from package undo; the record is
// prefixed with the op's previous undo LSN (the ARIES prevLSN chain) and
// interleaved with the redo records in LSN order. No-op when undo is
// disabled, inside a rollback (CLRs are never undone), inside a
// suspended section, or in a system transaction. Nil-safe.
func (op *Op) StageUndo(body []byte) {
	if op == nil || !op.p.undoOn {
		return
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	if op.sys || op.clr || op.noUndo > 0 {
		return
	}
	lsn := op.p.lsn.Add(1)
	data := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint64(data, op.undoPrev)
	copy(data[8:], body)
	op.undoPrev = lsn
	op.recs = append(op.recs, redo.Record{LSN: lsn, Kind: redo.KindUndo, Data: data})
}

// UndoEnabled reports whether a StageUndo call on this op would capture
// anything — structure layers use it to skip expensive old-value reads
// (overflow chains, extent data) when capture is off. Nil-safe.
func (op *Op) UndoEnabled() bool {
	if op == nil || !op.p.undoOn {
		return false
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	return !op.sys && !op.clr && op.noUndo == 0
}

// SuspendUndo disables undo capture on this op until the returned resume
// function runs. Used for sections with no inverse (object destruction):
// capturing inverses for their *neighbouring* mutations would roll back
// half the section and leave the structure self-contradictory. Nil-safe.
func (op *Op) SuspendUndo() func() {
	if op == nil {
		return func() {}
	}
	op.mu.Lock()
	op.noUndo++
	op.mu.Unlock()
	return func() {
		op.mu.Lock()
		op.noUndo--
		op.mu.Unlock()
	}
}

// BeginCLR switches the op into rollback mode: subsequently staged
// records are flagged as compensation log records (replayed like their
// base kind, never undone) and undo capture stops. Nil-safe.
func (op *Op) BeginCLR() {
	if op == nil {
		return
	}
	op.mu.Lock()
	op.clr = true
	op.mu.Unlock()
}

// UndoBodies returns the op's captured undo bodies newest-first (the
// order a rollback must execute them), with the prevLSN prefix stripped.
// Nil-safe.
func (op *Op) UndoBodies() [][]byte {
	if op == nil {
		return nil
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	var out [][]byte
	for i := len(op.recs) - 1; i >= 0; i-- {
		if r := op.recs[i]; redo.BaseKind(r.Kind) == redo.KindUndo && len(r.Data) >= 8 {
			out = append(out, r.Data[8:])
		}
	}
	return out
}

// addDep records that d's staged records must reach the log before this
// op's commit.
func (op *Op) addDep(d *Op) {
	op.mu.Lock()
	if op.deps == nil {
		op.deps = make(map[*Op]struct{})
	}
	op.deps[d] = struct{}{}
	op.mu.Unlock()
}

// FlushOpDeps chunk-appends the pending records of every op this op
// depends on (transitively), so the depending commit's group sync covers
// them. Without this, a commit whose extent records share a page with an
// open neighbour's would replay against cell positions missing the
// neighbour's records — the stale-cell-position anomaly. No extra sync:
// the log is sequential and the commit's own sync lands after.
func (p *Pager) FlushOpDeps(op *Op) {
	if op == nil || p.stealApp == nil {
		return
	}
	op.mu.Lock()
	rootCLR := op.clr
	op.mu.Unlock()
	seen := map[*Op]bool{op: true}
	p.flushDepsRec(op, seen, rootCLR)
}

func (p *Pager) flushDepsRec(op *Op, seen map[*Op]bool, rootCLR bool) {
	op.mu.Lock()
	deps := make([]*Op, 0, len(op.deps))
	for d := range op.deps {
		deps = append(deps, d)
	}
	op.deps = nil
	op.mu.Unlock()
	for _, d := range deps {
		if seen[d] {
			continue
		}
		seen[d] = true
		p.flushDepsRec(d, seen, rootCLR)
		// A dependency that is mid-rollback cannot be chunk-flushed (its
		// CLRs must reach the log only with its own commit — see
		// flushOpChunk). Wait for the rollback's commit instead: rollbacks
		// are serialized and never themselves wait on a non-finished CLR
		// dep (rootCLR), so the wait terminates.
		d.mu.Lock()
		wait := d.clr && !d.finished && !rootCLR
		ch := d.finishCh
		d.mu.Unlock()
		if wait && ch != nil {
			<-ch
		}
		_, _ = p.flushOpChunk(d)
	}
}

// FinishOp closes the op once its commit (or rollback commit) outcome is
// known. appended reports whether the op's pending records reached the
// log — true on commit success (the group append covered them); false
// when the commit failed, leaving the covered pages gated against steal
// until a checkpoint flushes everything home. Nil-safe.
func (p *Pager) FinishOp(op *Op, appended bool) {
	if op == nil {
		return
	}
	op.mu.Lock()
	pending := op.recs[op.nflushed:]
	var seq uint64
	if appended && p.stealApp != nil {
		seq = p.appendSeq.Add(1)
	}
	op.finished = true
	op.nflushed = len(op.recs)
	ch := (chan struct{})(nil)
	if !op.closed && op.finishCh != nil {
		op.closed = true
		ch = op.finishCh
	}
	op.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	if seq != 0 {
		for _, r := range pending {
			if gatesPage(r.Kind) {
				p.noteAppended(r.Page, seq)
			}
		}
	}
	if p.stealApp != nil {
		p.opMu.Lock()
		delete(p.ops, op)
		p.opMu.Unlock()
	}
}

// Defer registers fn to run after the op's commit is durable, with a
// fresh system-transaction capture (deferred structural rebalancing:
// running it post-commit keeps uncommitted deletes out of the merge's
// replay window). Nil-safe.
func (op *Op) Defer(fn func(*Op) error) {
	if op == nil {
		return
	}
	op.mu.Lock()
	op.deferred = append(op.deferred, fn)
	op.mu.Unlock()
}

// Deferred returns and clears the registered post-commit actions.
func (op *Op) Deferred() []func(*Op) error {
	op.mu.Lock()
	d := op.deferred
	op.deferred = nil
	op.mu.Unlock()
	return d
}

// stage appends a stamped record. In rollback mode the record is marked
// as a compensation log record.
func (op *Op) stage(r redo.Record) {
	op.mu.Lock()
	if op.clr {
		r.Kind |= redo.FlagCLR
	}
	op.recs = append(op.recs, r)
	op.mu.Unlock()
}

// BlockAllocator is the raw allocator under a Space (buddy.Allocator).
type BlockAllocator interface {
	Alloc(n uint64) (uint64, error)
	Free(addr, n uint64) error
}

// Space is the structure layers' only door to the block allocator: both
// methods take the operation, and stage a redo.KindAlloc record in it, so
// an allocation cannot be made without saying which operation's log
// records carry it. Recovery then rebuilds the allocator from the last
// checkpoint's snapshot plus the records of the log tail. A nil op is
// unlogged: a non-transactional volume, formatting, or a page-image
// baseline mode — none of which leaves a snapshot a crashed open trusts.
type Space struct{ a BlockAllocator }

// NewSpace wraps a.
func NewSpace(a BlockAllocator) Space { return Space{a} }

// Alloc reserves a run of at least n blocks for op.
func (s Space) Alloc(op *Op, n uint64) (uint64, error) {
	addr, err := s.a.Alloc(n)
	if err == nil {
		op.stageAlloc(false, addr, n)
	}
	return addr, err
}

// Free releases the run Alloc(n) returned at addr, on behalf of op.
func (s Space) Free(op *Op, addr, n uint64) error {
	err := s.a.Free(addr, n)
	if err == nil {
		op.stageAlloc(true, addr, n)
	}
	return err
}

// stageAlloc stages the allocator record of a run just taken or given
// back. Nil-safe.
func (op *Op) stageAlloc(free bool, addr, n uint64) {
	if op != nil {
		op.stage(redo.Record{LSN: op.p.lsn.Add(1), Page: addr, Kind: redo.KindAlloc, Data: redo.EncodeAlloc(free, n)})
	}
}

// MarkDirtyRec marks the page dirty and stages a redo record for op.
// The LSN is drawn and the pageLSN updated inside the page's shard lock —
// the short per-page latch window that scopes the record to exactly this
// mutation: the caller still holds the structure lock that serialized the
// edit, so no concurrent writer can slip bytes into the window between
// the edit and its stamp, and per-page LSN order equals byte order.
// With a nil op this is MarkDirty.
func (p *Pager) MarkDirtyRec(pg *Page, op *Op, kind uint8, data []byte) {
	if op == nil {
		p.MarkDirty(pg)
		return
	}
	lsn, dep := p.markDirtyStamp(pg, op, kind)
	if dep != nil {
		op.addDep(dep)
	}
	op.stage(redo.Record{LSN: lsn, Page: pg.no, Kind: kind, Data: data})
}

// markDirtyStamp marks dirty and stamps a fresh LSN under the shard
// latch (capturing a first-touch base image on the clean→dirty
// transition, with an LSN below the edit's). Under steal it also raises
// the page's unflushed gate for the record about to be staged, and
// returns the previous extent-record op as a flush dependency when the
// record is extent-typed.
func (p *Pager) markDirtyStamp(pg *Page, op *Op, kind uint8) (uint64, *Op) {
	s := p.shardOf(pg.no)
	s.mu.Lock()
	if pg.pins <= 0 {
		s.mu.Unlock()
		panic("pager: MarkDirtyRec on unpinned page")
	}
	base := p.setDirtyLocked(s, pg)
	lsn := p.lsn.Add(1)
	pg.lsn.Store(lsn)
	var dep *Op
	if p.stealApp != nil {
		pg.unflushed++
		if redo.BaseKind(kind) == redo.KindExtentOp {
			if prev := pg.lastXop; prev != nil && prev != op {
				dep = prev
			}
			pg.lastXop = op
		}
	}
	s.mu.Unlock()
	if p.appendBase(base) && p.stealApp != nil {
		p.noteAppended(pg.no, p.appendSeq.Add(1))
	}
	p.noteDirty(pg)
	return lsn, dep
}

// --- per-transaction dirty capture (page-image logging mode) ---

// Txn captures the pages dirtied while it is open, so a commit can log
// exactly the pages its operation touched instead of scanning and
// copying the whole cache's dirty set. Page images are copied at
// MarkDirty time, under the mutator's own structure latch (B-tree lock,
// extent lock, ...) — the only synchronization that actually guards the
// page bytes — so a capture never observes a page mid-mutation and
// logged images are never torn. Captures are conservative: while several
// transactions are open concurrently, a page dirtied by any of them is
// recorded in all of them (physical redo logging shares pages between
// writers, so a commit must log the freshest image of every co-written
// page, or a later commit could replay a stale image over a neighbour's
// acknowledged change). The guarantee is per page, not per operation: a
// capture can include one page of a concurrent writer's multi-page
// mutation, so a crash in that window may recover a neighbour's partial
// operation — see DESIGN.md's sharing caveat; true operation isolation
// needs physiological logging, which page-image redo does not attempt.
type Txn struct {
	p     *Pager
	mu    sync.Mutex
	pages map[uint64][]byte // freshest captured image per page
	done  bool
}

// BeginTxn opens a dirty-page capture. Every MarkDirty between BeginTxn
// and WriteSet/Abort records the page image into this transaction.
func (p *Pager) BeginTxn() *Txn {
	t := &Txn{p: p, pages: make(map[uint64][]byte, 16)}
	p.txnMu.Lock()
	p.txns[t] = struct{}{}
	p.txnMu.Unlock()
	p.ntxns.Add(1)
	return t
}

// noteDirty snapshots a just-dirtied page into every open capture: one
// copy, taken while the MarkDirty caller still holds the structure latch
// that serializes writers of this page, shared read-only by all
// captures (buffers are never mutated after registration — the WAL and
// every capture only read them). Txn.mu is leaf-level (never held while
// taking a shard lock), so lock order is shard → registry → txn.
func (p *Pager) noteDirty(pg *Page) {
	if p.ntxns.Load() == 0 {
		return
	}
	c := make([]byte, len(pg.data))
	copy(c, pg.data)
	p.txnMu.Lock()
	for t := range p.txns {
		t.mu.Lock()
		if !t.done {
			t.pages[pg.no] = c
		}
		t.mu.Unlock()
	}
	p.txnMu.Unlock()
}

func (p *Pager) endTxn(t *Txn) {
	p.txnMu.Lock()
	if _, ok := p.txns[t]; ok {
		delete(p.txns, t)
		p.ntxns.Add(-1)
	}
	p.txnMu.Unlock()
}

// WriteSet closes the capture and returns the captured page images. The
// caller takes ownership of the map; the image buffers may be shared
// with concurrent captures and must be treated as read-only.
func (t *Txn) WriteSet() map[uint64][]byte {
	t.mu.Lock()
	t.done = true
	out := t.pages
	t.pages = nil
	t.mu.Unlock()
	t.p.endTxn(t)
	return out
}

// Abort closes the capture without collecting images. The pages stay
// dirty in the cache; they reach the device via a later transaction that
// re-dirties them or via checkpoint/sync.
func (t *Txn) Abort() {
	t.mu.Lock()
	t.done = true
	t.pages = nil
	t.mu.Unlock()
	t.p.endTxn(t)
}

// DirtyPages returns the numbers and contents of all dirty pages.
// Contents are copied so the caller may hold them across further
// mutation. Commits no longer use this full-cache scan (they log
// per-transaction write sets via BeginTxn); it remains for tests and
// diagnostics.
func (p *Pager) DirtyPages() map[uint64][]byte {
	out := make(map[uint64][]byte)
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for no, pg := range s.dirty {
			c := make([]byte, len(pg.data))
			copy(c, pg.data)
			out[no] = c
		}
		s.mu.Unlock()
	}
	return out
}

// FlushDirty writes every dirty page home and marks it clean. Callers
// quiesce open operations first (the checkpoint fence); the flush also
// clears steal gates left raised by failed appends — everything is home
// now, so the log no longer needs to cover it.
func (p *Pager) FlushDirty() error {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for no, pg := range s.dirty {
			if err := p.dev.WriteBlock(no, pg.data); err != nil {
				s.mu.Unlock()
				return err
			}
			s.writebacks++
			pg.dirty = false
			pg.fresh = false
			pg.unflushed = 0
			pg.lastXop = nil
			delete(s.dirty, no)
			p.ndirty.Add(-1)
		}
		s.mu.Unlock()
	}
	return nil
}

// DirtyCount returns the number of dirty cached pages. Lock-free: the
// volume checks it on every commit for the checkpoint dirty high-water.
func (p *Pager) DirtyCount() int {
	return int(p.ndirty.Load())
}

// Invalidate drops the page from the cache without writing it back.
// Used when a page is freed. The page must be unpinned.
func (p *Pager) Invalidate(no uint64) error {
	s := p.shardOf(no)
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, ok := s.table[no]
	if !ok {
		return nil
	}
	if pg.pins > 0 {
		return fmt.Errorf("%w: page %d", ErrPinned, no)
	}
	if pg.elem != nil {
		s.lru.Remove(pg.elem)
	}
	delete(s.table, no)
	if pg.dirty {
		delete(s.dirty, no)
		p.ndirty.Add(-1)
	}
	return nil
}

// Sync flushes all dirty pages and syncs the device.
func (p *Pager) Sync() error {
	if err := p.FlushDirty(); err != nil {
		return err
	}
	return p.dev.Sync()
}

// Stats returns a snapshot of cache counters aggregated across shards.
func (p *Pager) Stats() Stats {
	var out Stats
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Evictions += s.evictions
		out.Writebacks += s.writebacks
		out.Cached += len(s.table)
		out.Dirty += len(s.dirty)
		s.mu.Unlock()
	}
	out.Steals = p.steals.Load()
	out.ChunkFlushes = p.chunkFlushes.Load()
	return out
}
