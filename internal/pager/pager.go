// Package pager provides a buffer cache of device blocks (pages) shared by
// the B-tree, extent-tree, and WAL layers.
//
// Pages are pinned while in use, and a pin is a scope: With pins a page,
// runs a function on it and unpins it when the function returns, so a pin
// cannot leak. Every cached page sits in one replacement queue for the
// whole pager (SIEVE, see sieve); a miss at capacity evicts the page the
// queue's hand picks, writing it home first if it is dirty, and reuses
// its frame.
//
// The pager is the structure layers' only door to the device; none of
// them holds one. A page reaches the device three ways: eviction writes a
// dirty page home, FlushDirty writes every dirty page home at a
// checkpoint, and WriteFresh writes a page that will never change — a
// freshly allocated page of a tree built whole (btree.Build) — once, at
// once, leaving it clean in the cache, admitted as visited, and logging
// only its sum. Object data passes the pager but not its frames (see
// data.go): ReadData and WriteData move an extent's bytes straight to and
// from the device, and WriteData, like WriteFresh and a pack's write
// (ClosePack), stages the sum of every block it wrote. When a
// write-ahead log governs the volume, the pager runs a *steal* policy with
// WAL-before-data: a dirty page — even one carrying uncommitted edits — may
// be written home by eviction once every record staged against it (redo and
// undo) is durably in the log. Open operations' staged records are flushed
// to the log as mid-transaction chunks (EnableSteal) to unblock eviction;
// recovery repeats history from the log and rolls losers back through their
// undo records. Without a chunk appender the pager degrades to no-steal:
// dirty pages are only written home by FlushDirty at checkpoint.
//
// The page table is internally sharded by page number: a single global
// mutex would serialize every component that touches a page, re-creating
// exactly the shared hotspot the paper's §2.3 complains about one layer
// down. Hits and releases take only their shard's latch; the queue's own
// mutex is taken by misses, evictions and Invalidate, before any shard
// latch. Experiment E8 measures the index-store sharding that this makes
// visible.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/redo"
	"repro/internal/undo"
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

// Page is a cached device block. Callers see it only inside With (or
// WithZero), and only under whatever higher-level latch (e.g. the B-tree
// lock) guards the page's structure.
type Page struct {
	no    uint64
	data  []byte
	pins  int
	dirty bool
	// prev and next link the page into the replacement queue, oldest to
	// newest; guarded by the queue's mutex.
	prev, next *Page
	// visited is SIEVE's reference bit: a hit sets it, the hand clears it
	// as it passes. Shard-lock guarded.
	visited bool
	// busy is non-nil while the initial device read is filling data. The
	// page is published in the shard table before the read so concurrent
	// acquirers of the same block find it and wait instead of pinning a
	// half-filled page; busy is closed (under the shard lock being
	// released) once the fill completes or fails.
	busy chan struct{}
	// fresh marks a page created by WithZero that has never been
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
}

// No returns the page's block number.
func (p *Page) No() uint64 { return p.no }

// Data returns the page contents. The slice is valid only inside the With
// that pinned the page: copy out what must outlive it.
func (p *Page) Data() []byte { return p.data }

// Stats describes cache effectiveness.
type Stats struct {
	Hits         int64
	Misses       int64
	Evictions    int64
	Writebacks   int64 // pages written home: evicted, flushed, or WriteFresh
	Steals       int64 // dirty pages evicted under WAL-before-data gating
	ChunkFlushes int64 // mid-transaction chunk appends issued for steal/deps
	Cached       int
	Dirty        int
}

type shard struct {
	mu    sync.Mutex
	table map[uint64]*Page
	dirty map[uint64]*Page

	hits, misses, evictions, writebacks int64
}

// sieve is the pager's one replacement queue (SIEVE, Zhang et al., NSDI
// '24). Every cached page sits in it once, in the order it entered the
// cache. A hit only sets the page's visited bit and a release only drops
// the pin, so neither touches the queue. A miss at capacity moves the
// hand from where it last stopped toward the newest page, wrapping to the
// oldest: it clears the visited bits it passes and evicts the first page
// that is unvisited, unpinned and not steal-gated. A page hit since the
// hand last passed it survives a scan of any length, which a
// least-recently-used order cannot give the object-table and index pages
// that every read shares.
//
// mu is taken on the miss, evict and Invalidate paths, always before a
// shard latch; it also orders every insertion into the page tables, so a
// page found absent while it is held stays absent until it is unlocked.
type sieve struct {
	mu sync.Mutex
	// ring is the sentinel: ring.next is the oldest page, ring.prev the
	// newest.
	ring Page
	// hand is the next page the sweep looks at; the sentinel means the
	// oldest.
	hand  *Page
	n     int   // pages in the queue
	steps int64 // pages the hand has looked at
}

// push files pg as the newest page.
func (q *sieve) push(pg *Page) {
	pg.prev, pg.next = q.ring.prev, &q.ring
	pg.prev.next = pg
	q.ring.prev = pg
	q.n++
}

// unlink takes pg out of the queue; a hand on pg moves to the next page.
func (q *sieve) unlink(pg *Page) {
	if q.hand == pg {
		q.hand = pg.next
	}
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil
	q.n--
}

// after returns the page the hand visits after pg.
func (q *sieve) after(pg *Page) *Page {
	if pg.next == &q.ring {
		return q.ring.next
	}
	return pg.next
}

// Pager is a fixed-capacity buffer cache over a block device.
type Pager struct {
	dev        blockdev.Device
	capacity   int
	evictDirty bool
	q          sieve
	shards     [numShards]shard

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
	// after maps a structure's key to the open operation that last built
	// on it (After); an entry goes with its operation's FinishOp.
	// opMu guarded, like each op's claims.
	after map[uint64]*Op

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

	// pending holds the buffer of every pack an open operation is still
	// filling, by block (see Slot); npending is its size, so that a read
	// of a slot with no pack pending costs one atomic load.
	packMu   sync.Mutex
	pending  map[uint64][]byte
	npending atomic.Int32
}

// ChunkAppender is the log as steal sees it. AppendChunk appends the
// staged records of one open transaction as a mid-transaction chunk
// chained after prev (0 = first), returning the chunk's log transaction
// id; Sync makes every append so far durable, whether or not the log has
// written it to the device yet. The volume wires it to its wal.Log.
type ChunkAppender interface {
	AppendChunk(prev uint64, recs []redo.Record) (uint64, error)
	Sync() error
}

// New creates a pager over dev caching up to capacity pages.
// evictDirty selects steal (true) or no-steal (false) eviction policy.
func New(dev blockdev.Device, capacity int, evictDirty bool) *Pager {
	p := &Pager{
		dev:        dev,
		capacity:   capacity,
		evictDirty: evictDirty,
	}
	p.q.ring.prev, p.q.ring.next, p.q.hand = &p.q.ring, &p.q.ring, &p.q.ring
	for i := range p.shards {
		p.shards[i].table = make(map[uint64]*Page)
		p.shards[i].dirty = make(map[uint64]*Page)
	}
	p.ops = make(map[*Op]struct{})
	p.after = make(map[uint64]*Op)
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

// With pins page no, reading it from the device on a miss, runs fn on it
// and unpins it when fn returns, panics included. The page and every
// slice of its Data are valid only inside fn. Pages held together nest
// their With calls.
func (p *Pager) With(no uint64, fn func(*Page) error) error {
	pg, err := p.acquire(no, true)
	if err != nil {
		return err
	}
	defer p.Release(pg)
	return fn(pg)
}

// WithZero is With for a freshly allocated page whose on-device content
// is garbage: fn gets it zeroed, the device is not read, and the page
// needs no base image until it is first written home.
func (p *Pager) WithZero(no uint64, fn func(*Page) error) error {
	pg, err := p.acquireZero(no)
	if err != nil {
		return err
	}
	defer p.Release(pg)
	return fn(pg)
}

// Acquire returns the page pinned, reading it from the device on a miss.
//
// Deprecated: benchmark/probes.go only; use With.
func (p *Pager) Acquire(no uint64) (*Page, error) {
	return p.acquire(no, true)
}

// acquireZero returns the page pinned with zeroed contents, marked fresh,
// without reading the device.
func (p *Pager) acquireZero(no uint64) (*Page, error) {
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
			pg.visited = true
			pg.pins++
			s.mu.Unlock()
			return pg, nil
		}
		s.mu.Unlock()

		p.q.mu.Lock()
		s.mu.Lock()
		_, raced := s.table[no]
		s.mu.Unlock()
		if raced {
			// Another acquirer admitted the page between the two locks.
			p.q.mu.Unlock()
			continue
		}
		frame, needSteal, err := p.makeRoomLocked()
		if err != nil {
			p.q.mu.Unlock()
			return nil, err
		}
		if needSteal && !stealTried {
			// Every unpinned page is dirty with records not yet durably
			// logged. Flush the open operations' staged records as chunks
			// and sync, then retry — the pages become stealable.
			p.q.mu.Unlock()
			stealTried = true
			p.stealFlush()
			continue
		}
		if frame == nil {
			frame = make([]byte, p.dev.BlockSize())
		}
		pg := &Page{no: no, data: frame, pins: 1}
		if read {
			pg.busy = make(chan struct{})
		}
		s.mu.Lock()
		s.misses++
		s.table[no] = pg
		s.mu.Unlock()
		p.q.push(pg)
		p.q.mu.Unlock()

		if !read {
			return pg, nil
		}
		err = p.dev.ReadBlock(no, pg.data)
		if err != nil {
			// The page never became valid: withdraw it. It was pinned
			// for the whole window (so eviction and Invalidate ignored
			// it) and waiters were parked on busy (so no one else holds
			// a pin), which keeps the capacity accounting exact.
			p.q.mu.Lock()
			s.mu.Lock()
			delete(s.table, no)
			s.mu.Unlock()
			p.q.unlink(pg)
			p.q.mu.Unlock()
		}
		s.mu.Lock()
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

// makeRoomLocked evicts while the cache is at capacity, under the queue
// mutex, and returns the last victim's frame for the page being admitted.
// It returns needSteal=true when the hand finds no victim under steal:
// the unpinned pages are dirty and gated on un-durable log records — the
// caller should run a steal flush (outside the queue mutex) and retry.
// With no eligible victim and no steal appender it returns
// needSteal=false: grow rather than fail — capacity is advisory,
// correctness is not.
func (p *Pager) makeRoomLocked() ([]byte, bool, error) {
	var frame []byte
	synced := p.syncedSeq.Load()
	for p.q.n >= p.capacity {
		victim, err := p.evictLocked(synced)
		if err != nil {
			return nil, false, err
		}
		if victim == nil {
			return frame, p.stealApp != nil, nil
		}
		frame = victim.data
	}
	return frame, false, nil
}

// evictLocked moves the hand until it finds a page that is unvisited,
// unpinned and not steal-gated, clearing the visited bits it passes;
// writes that page home if it is dirty; and takes it out of the cache.
// The hand looks at each page at most once plus the one it started at —
// one revolution — and returns nil, back where it started, when every
// page is pinned or gated. The queue mutex is held.
func (p *Pager) evictLocked(synced uint64) (*Page, error) {
	q := &p.q
	if q.n == 0 {
		return nil, nil
	}
	pg := q.hand
	if pg == &q.ring {
		pg = q.ring.next
	}
	start := pg
	for range q.n + 1 {
		q.steps++
		s := p.shardOf(pg.no)
		s.mu.Lock()
		switch {
		case pg.visited:
			pg.visited = false
		case pg.pins > 0:
		case pg.dirty && !p.evictDirty && (p.stealApp == nil || pg.unflushed > 0 || pg.appendSeq > synced):
			// Steal gate: every staged record durably logged.
		default:
			if pg.dirty {
				if err := p.dev.WriteBlock(pg.no, pg.data); err != nil {
					s.mu.Unlock()
					q.hand = pg
					return nil, err
				}
				s.writebacks++
				if !p.evictDirty {
					p.steals.Add(1)
				}
				pg.dirty = false
				pg.fresh = false
				pg.unflushed = 0
				delete(s.dirty, pg.no)
			}
			delete(s.table, pg.no)
			s.evictions++
			s.mu.Unlock()
			q.hand = pg
			q.unlink(pg)
			return pg, nil
		}
		s.mu.Unlock()
		pg = q.after(pg)
	}
	q.hand = start
	return nil, nil
}

// stealFlush makes every open operation's staged records durable —
// chunk-appending the pending ones, then syncing the log — so dirty pages
// gated on them become stealable. One round serves all shards.
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
		if err := p.stealApp.Sync(); err != nil {
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
	end := len(op.recs)
	if op.atomic > 0 {
		end = op.atomicAt // an open section goes out whole, later
	}
	if op.sys || op.clr || op.finished || op.nflushed >= end {
		// CLR-mode ops are excluded like system transactions: a rollback's
		// compensations reach the log only with the rollback's own commit,
		// so a crash mid-undo drops the whole compensation and recovery
		// restarts the undo from scratch — without this, replayed partial
		// CLRs plus a re-run of the chain's undo records would apply
		// non-idempotent inverses twice.
		return 0, nil
	}
	pending := op.recs[op.nflushed:end]
	id, err := p.stealApp.AppendChunk(op.lastChunk, pending)
	if err != nil {
		return 0, err
	}
	op.lastChunk = id
	op.nflushed = end
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
// page's unflushed gate (MarkDirtyRec did): undo, allocator, wrote and
// built records name no cached page.
func gatesPage(kind uint8) bool {
	switch redo.BaseKind(kind) {
	case redo.KindUndo, redo.KindAlloc, redo.KindWrote, redo.KindBuilt:
		return false
	}
	return true
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
//
// Deprecated: benchmark/probes.go only; use With.
func (p *Pager) Release(pg *Page) {
	s := p.shardOf(pg.no)
	s.mu.Lock()
	defer s.mu.Unlock()
	if pg.pins <= 0 {
		panic("pager: release of unpinned page")
	}
	pg.pins--
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
// *Op is accepted everywhere and means "unlogged": formatting, or a
// structure used outside a volume.
type Op struct {
	p   *Pager
	app Appender
	id  uint64 // see ID

	mu       sync.Mutex
	recs     []redo.Record // redo and undo records, staging (= LSN) order
	deferred []deferral
	onFinish []func() // run by FinishOp (OnFinish)

	// ARIES bookkeeping (meaningful only with EnableSteal/EnableUndo):
	nflushed  int              // prefix of recs already chunk-appended to the log
	lastChunk uint64           // txid of the op's last flushed chunk (0 = none)
	undoPrev  uint64           // LSN of the last staged undo record (prevLSN chain)
	deps      map[*Op]struct{} // ops whose records must be logged before this commit
	claims    []uint64         // keys whose p.after entry is this op (opMu guarded)
	ceded     []uint64         // claims another op took over since (opMu guarded)
	sys       bool             // system transaction: atomic via AppendSys, never chunked
	clr       bool             // rolling back: records are CLRs, no further undo capture
	atomic    int              // open atomic sections (BeginAtomic)
	atomicAt  int              // len(recs) when the outermost atomic section opened
	finished  bool             // sealed: no further chunk flush may take its records
	closed    bool             // FinishOp ran (finishCh closed)
	finishCh  chan struct{}    // closed by FinishOp; dependency flushes wait on it

	// packing says the op packs the small objects it creates (StartPacking);
	// pk is its open pack, if any. Only the op's own goroutine touches them.
	packing    bool
	pk         *pack
	packFailed error
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
// (see smoOp in extent). Nil-safe.
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

// StageUndo captures the logical inverse of the mutation about to be
// performed. body is an encoding from package undo; the record is
// prefixed with the op's previous undo LSN (the ARIES prevLSN chain) and
// interleaved with the redo records in LSN order. No-op when undo is
// disabled, inside a rollback (CLRs are never undone), or in a system
// transaction. Nil-safe.
func (op *Op) StageUndo(body []byte) {
	if op == nil || !op.p.undoOn {
		return
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	if op.sys || op.clr {
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
	return !op.sys && !op.clr
}

// BeginAtomic opens an atomic section, which EndAtomic closes; sections
// nest. A chunk flush takes only the records staged before the outermost
// open section, so one logical mutation — its inverse, the runs it
// allocates or frees, and the records that link or unlink them — reaches
// the log whole or not at all, and a loser's rollback never meets half of
// one. Until the section closes its pages stay gated against steal; an
// eviction that finds nothing else to take grows the cache instead.
// Structure layers open one per mutating call, under the tree lock.
// Nil-safe.
func (op *Op) BeginAtomic() {
	if op == nil {
		return
	}
	op.mu.Lock()
	if op.atomic == 0 {
		op.atomicAt = len(op.recs)
	}
	op.atomic++
	op.mu.Unlock()
}

// EndAtomic closes the section the matching BeginAtomic opened. Nil-safe.
func (op *Op) EndAtomic() {
	if op == nil {
		return
	}
	op.mu.Lock()
	op.atomic--
	op.mu.Unlock()
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

// Rollback runs the op's captured inverses newest-first (the order a
// rollback must execute them) through apply, in rollback mode (see
// BeginCLR), and drops what the rolled-back mutations registered with
// Defer; what apply's compensations register stays. When apply fails,
// the rollback stops there: the mutations whose inverses did not run
// stand, and so do their deferrals. Nil-safe.
func (op *Op) Rollback(apply func(body []byte) error) {
	if op == nil {
		return
	}
	op.mu.Lock()
	op.clr = true
	var undos []redo.Record
	for i := len(op.recs) - 1; i >= 0; i-- {
		if r := op.recs[i]; redo.BaseKind(r.Kind) == redo.KindUndo && len(r.Data) >= 8 {
			undos = append(undos, r)
		}
	}
	mutations := op.deferred
	op.deferred = nil
	op.mu.Unlock()
	var stand []deferral
	for _, r := range undos {
		if apply(r.Data[8:]) != nil {
			for _, d := range mutations {
				if d.undo <= r.LSN {
					stand = append(stand, d)
				}
			}
			break
		}
	}
	op.mu.Lock()
	op.deferred = append(stand, op.deferred...)
	op.mu.Unlock()
}

// After makes op's commit wait until the log holds the staged records
// of the open operation that last built on the structure named key, and
// makes op that operation. A structure calls it when an operation
// creates it or starts to mutate it: an extent tree, keyed by its owner
// (extent.Key — a namespace no block number reaches), whose leaf cells
// are addressed by index and whose root the object's row holds, so a
// crash must not find op's records without the earlier ones. The entry
// lives as long as the operation, not as long as a handle on the
// structure, and FinishOp drops it, so no finished operation's records
// stay reachable. Without steal nothing reaches the log before its own
// commit, and After does nothing; nor does it for a system transaction,
// which is appended at once.
func (p *Pager) After(key uint64, op *Op) {
	if op == nil || op.sys || p.stealApp == nil {
		return
	}
	p.opMu.Lock()
	prev := p.after[key]
	if prev != op {
		p.after[key] = op
		op.claims = append(op.claims, key)
		if prev != nil {
			prev.ceded = append(prev.ceded, key)
		}
	}
	p.opMu.Unlock()
	if prev != nil && prev != op {
		op.addDep(prev)
	}
}

// Holds reports whether op is the only operation that has built on the
// structure named key since op first did (After): the pager still names
// op as its last builder, and no other operation took it over in
// between, whether or not that one has finished since. A caller that
// mirrors its own mutations of the structure can trust the mirror while
// op holds it. Always false without steal, where After records nothing.
func (p *Pager) Holds(key uint64, op *Op) bool {
	if op == nil {
		return false
	}
	p.opMu.Lock()
	defer p.opMu.Unlock()
	return p.after[key] == op && !slices.Contains(op.ceded, key)
}

// Claimed reports whether an open operation has built on the structure
// named key (After): then the cache may hold edits of it that the log
// does not yet. Always false without steal.
func (p *Pager) Claimed(key uint64) bool {
	p.opMu.Lock()
	defer p.opMu.Unlock()
	return p.after[key] != nil
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
// depends on (After, transitively), so the depending commit's group sync
// covers them. Without this, a commit that builds on an open neighbour's
// edits of one extent tree would replay against cell positions missing
// the neighbour's records, or leave an object-table size counting bytes
// the log dropped. No extra sync: the log is sequential and the commit's
// own sync lands after.
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
	hooks := op.onFinish
	op.onFinish = nil
	op.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	for _, fn := range hooks {
		fn()
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
		for _, no := range op.claims {
			if p.after[no] == op {
				delete(p.after, no)
			}
		}
		op.claims, op.ceded = nil, nil
		p.opMu.Unlock()
	}
}

// Defer registers fn to run after the op's commit is durable, with a
// fresh system-transaction capture (deferred structural rebalancing:
// running it post-commit keeps uncommitted deletes out of the merge's
// replay window; a destroyed structure's cache teardown). A rollback
// drops what the rolled-back mutations registered. Nil-safe.
func (op *Op) Defer(fn func(*Op) error) {
	if op == nil {
		return
	}
	op.mu.Lock()
	op.deferred = append(op.deferred, deferral{fn, op.undoPrev})
	op.mu.Unlock()
}

// deferral is one Defer: fn belongs to the mutation whose inverse was the
// op's newest when it registered (undo, an LSN; 0 before any).
type deferral struct {
	fn   func(*Op) error
	undo uint64
}

// Deferred returns and clears the registered post-commit actions.
func (op *Op) Deferred() []func(*Op) error {
	op.mu.Lock()
	d := op.deferred
	op.deferred = nil
	op.mu.Unlock()
	fns := make([]func(*Op) error, len(d))
	for i := range d {
		fns[i] = d[i].fn
	}
	return fns
}

// OnFinish registers fn to run when FinishOp closes the op, whatever the
// outcome: a commit, a rollback's commit, or a failed one. Nil-safe.
func (op *Op) OnFinish(fn func()) {
	if op == nil {
		return
	}
	op.mu.Lock()
	op.onFinish = append(op.onFinish, fn)
	op.mu.Unlock()
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

// wrote stages a redo.KindWrote or KindBuilt record: the operation wrote
// the blocks from first on straight to the device, outside the log, and
// sums holds the u32 sum of each (putBlock). The record edits no cached
// page; replay only reads it. Nil-safe.
func (op *Op) wrote(kind uint8, first uint64, sums []byte) {
	if op != nil {
		op.stage(redo.Record{LSN: op.p.lsn.Add(1), Page: first, Kind: kind, Data: sums})
	}
}

// BlockAllocator is the raw allocator under a Space (buddy.Allocator):
// whole blocks are allocated, and a run of sectors — a run of blocks, or a
// slot of one — is taken back or given back.
type BlockAllocator interface {
	Alloc(n uint64) (uint64, error)
	AllocSectorsAt(s, n uint64) error
	FreeSectors(s, n uint64) error
}

// Space is the structure layers' only door to the block allocator: both
// methods take the operation, and stage a redo.KindAlloc record in it, so
// an allocation cannot be made without saying which operation's log
// records carry it. Recovery then rebuilds the allocator from the last
// checkpoint's snapshot plus the records of the log tail. A nil op is
// unlogged: formatting, or a structure used outside a volume — neither of
// which leaves a snapshot a crashed open trusts.
type Space struct {
	pg *Pager
	a  BlockAllocator
}

// NewSpace wraps a, the allocator of pg's blocks.
func NewSpace(pg *Pager, a BlockAllocator) Space { return Space{pg, a} }

// Alloc reserves a run of at least n blocks for op.
func (s Space) Alloc(op *Op, n uint64) (uint64, error) {
	addr, err := s.a.Alloc(n)
	if err == nil {
		op.stageAlloc(false, addr<<buddy.SectorShift, n<<buddy.SectorShift)
	}
	return addr, err
}

// Free releases the run Alloc(n) returned at addr, on behalf of op.
func (s Space) Free(op *Op, addr, n uint64) error {
	return s.FreeSectors(op, addr<<buddy.SectorShift, n<<buddy.SectorShift)
}

// FreeSectors releases the run of n sectors at sector sec, on behalf of
// op: a run of blocks, or a slot of a pack (see Slot).
func (s Space) FreeSectors(op *Op, sec, n uint64) error {
	err := s.a.FreeSectors(sec, n)
	if err == nil {
		op.stageAlloc(true, sec, n)
	}
	return err
}

// Reclaim takes back, for op, the runs a Drop freed: the inverse of the
// Drop, which is being rolled back. Inside the bracket that freed them the
// runs are still in limbo; at recovery the replayed frees parked them
// there too, so nothing can have reused them.
func (s Space) Reclaim(op *Op, runs []undo.Run) error {
	for _, r := range runs {
		if err := s.a.AllocSectorsAt(r.Addr, r.N); err != nil {
			return err
		}
		op.stageAlloc(false, r.Addr, r.N)
	}
	return nil
}

// Drop frees everything a destroyed structure owns — its cached node
// pages and its data runs (in sectors) — for op. One inverse naming all
// of them is staged before anything is freed, in the same atomic section,
// and no page is edited, so a rollback that takes the runs back finds
// them intact. For the same reason the pages leave the cache only once op
// commits.
func (s Space) Drop(op *Op, pages []uint64, data []undo.Run) error {
	invalidate := func(*Op) error {
		for _, no := range pages {
			if err := s.pg.Invalidate(no); err != nil {
				return err
			}
		}
		return nil
	}
	runs := make([]undo.Run, 0, len(pages)+len(data))
	for _, no := range pages {
		runs = append(runs, undo.Run{Addr: no << buddy.SectorShift, N: buddy.SectorsPerBlock})
	}
	runs = append(runs, data...)
	op.BeginAtomic()
	defer op.EndAtomic()
	op.StageUndo(undo.Reclaim(runs))
	for _, r := range runs {
		if err := s.FreeSectors(op, r.Addr, r.N); err != nil {
			return err
		}
	}
	if op == nil {
		return invalidate(nil)
	}
	op.Defer(invalidate)
	return nil
}

// stageAlloc stages the allocator record of a run of sectors just taken
// or given back. Nil-safe.
func (op *Op) stageAlloc(free bool, sec, n uint64) {
	if op != nil {
		page, data := redo.EncodeAlloc(free, sec, n)
		op.stage(redo.Record{LSN: op.p.lsn.Add(1), Page: page, Kind: redo.KindAlloc, Data: data})
	}
}

// MarkDirtyRec marks the page dirty and stages a redo record for op.
// The LSN is drawn and the pageLSN updated inside the page's shard lock —
// the short per-page latch window that scopes the record to exactly this
// mutation: the caller still holds the structure lock that serialized the
// edit, so no concurrent writer can slip bytes into the window between
// the edit and its stamp, and per-page LSN order equals byte order. A
// clean→dirty transition captures a first-touch base image with an LSN
// below the edit's; under steal the page's unflushed gate is raised for
// the record. With a nil op this is MarkDirty.
func (p *Pager) MarkDirtyRec(pg *Page, op *Op, kind uint8, data []byte) {
	if op == nil {
		p.MarkDirty(pg)
		return
	}
	s := p.shardOf(pg.no)
	s.mu.Lock()
	if pg.pins <= 0 {
		s.mu.Unlock()
		panic("pager: MarkDirtyRec on unpinned page")
	}
	base := p.setDirtyLocked(s, pg)
	lsn := p.lsn.Add(1)
	pg.lsn.Store(lsn)
	if p.stealApp != nil {
		pg.unflushed++
	}
	s.mu.Unlock()
	if p.appendBase(base) && p.stealApp != nil {
		p.noteAppended(pg.no, p.appendSeq.Add(1))
	}
	op.stage(redo.Record{LSN: lsn, Page: pg.no, Kind: kind, Data: data})
}

// FlushDirty writes every dirty page home, in ascending block order, and
// marks it clean. The order makes a checkpoint's writes the same sequence
// on every run, so a crash cut at its k-th write lands on the same page.
// Callers quiesce open operations first (the checkpoint fence); the
// flush also clears steal gates left raised by failed appends —
// everything is home now, so the log no longer needs to cover it.
func (p *Pager) FlushDirty() error {
	var nos []uint64
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for no := range s.dirty {
			nos = append(nos, no)
		}
		s.mu.Unlock()
	}
	slices.Sort(nos)
	for _, no := range nos {
		s := p.shardOf(no)
		s.mu.Lock()
		if pg, ok := s.dirty[no]; ok {
			if err := p.dev.WriteBlock(no, pg.data); err != nil {
				s.mu.Unlock()
				return err
			}
			s.writebacks++
			pg.dirty = false
			pg.fresh = false
			pg.unflushed = 0
			delete(s.dirty, no)
		}
		s.mu.Unlock()
	}
	return nil
}

// WriteFresh is how a page that will never change reaches the device:
// op has just allocated page no, and data is all of its content. The
// page goes home at once, through the pager's device, and stays in the
// cache clean, so readers hit it and eviction drops it without writing
// it again. Nothing is logged for its bytes. The block was free, so if
// op's records never reach the log no one owns what it holds; if they
// do, the redo.KindBuilt record staged here holds the block strictly to
// the sum of data at recovery. Nil-safe in op (unlogged).
func (p *Pager) WriteFresh(op *Op, no uint64, data []byte) error {
	if len(data) != p.dev.BlockSize() {
		return fmt.Errorf("%w: %d bytes for page %d", ErrBadPage, len(data), no)
	}
	pg, err := p.acquire(no, false)
	if err != nil {
		return err
	}
	copy(pg.data, data)
	sums, err := p.putBlock(no, pg.data, nil)
	s := p.shardOf(no)
	s.mu.Lock()
	if pg.dirty {
		pg.dirty = false
		delete(s.dirty, no)
	}
	pg.fresh, pg.unflushed = false, 0
	// The page is written to be read: a built segment is the input of the
	// next merge, and a page admitted unvisited would be the hand's first
	// victim before that merge comes.
	pg.visited = true
	if err == nil {
		s.writebacks++
	}
	s.mu.Unlock()
	p.Release(pg)
	if err != nil {
		// The frame holds bytes the device does not.
		_ = p.Invalidate(no)
		return err
	}
	op.wrote(redo.KindBuilt, no, sums)
	return nil
}

// Invalidate drops the page from the cache without writing it back.
// Used when a page is freed. The page must be unpinned.
func (p *Pager) Invalidate(no uint64) error {
	s := p.shardOf(no)
	p.q.mu.Lock()
	defer p.q.mu.Unlock()
	s.mu.Lock()
	pg, ok := s.table[no]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	if pg.pins > 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: page %d", ErrPinned, no)
	}
	delete(s.table, no)
	if pg.dirty {
		delete(s.dirty, no)
	}
	s.mu.Unlock()
	p.q.unlink(pg)
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
