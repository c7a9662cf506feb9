// Package wal implements the write-ahead log on a reserved block range
// of the volume device: an append-only sequence of typed redo records,
// undo records, and the commit, chunk and system-transaction markers that
// say which of them count.
//
// The paper leaves transactionality open ("in hFAD, the OSD may be
// transactional, but this is an implementation decision, not a
// requirement"); this package makes the decision measurable: the OSD can
// run with the WAL on or off, and experiment E10 reports the overhead.
//
// Protocol (ARIES: steal / no-force, group commit):
//
//  1. An operation mutates pages in the pager cache and stages, per
//     mutation, a physiological redo record (a byte range, a typed btree
//     or extent op, an allocator mutation) stamped with an LSN under the
//     page latch, and the logical inverse that would undo it.
//  2. At commit the operation's records are handed to the group
//     committer: a leader drains the queue of pending commit batches,
//     appends all their records plus commit records in one contiguous
//     write, and issues a single device sync that releases every waiter —
//     N concurrent committers pay one sync.
//  3. Pages are NOT forced home at commit. A dirty page — even one with
//     uncommitted edits — may be written home once every record staged
//     against it is durably logged; to get there the pager flushes an open
//     operation's records early as a *chunk* (AppendChunk), chained to the
//     operation's earlier chunks and resolved by its commit record.
//     Structure modifications (splits, merges, first-touch base images)
//     are auto-committed *system transactions* (AppendSystem).
//  4. A checkpoint (background, past a high-water mark, or Sync/Close)
//     flushes every dirty page and resets the log behind an LSN fence.
//
// Recover scans the region once, front to back, through one block buffer,
// and "repeats history": records of committed transactions, system
// transactions and unresolved chunk chains (losers) all replay, in LSN
// (mutation) order; torn or never-terminated tails are detected by CRC
// and dropped. The caller then rolls each loser chain back through its
// undo records (Losers). Page-image records from the image-logging
// baseline mode carry LSN 0 and replay in log order (the stable sort
// preserves it).
//
// Log record layout (little-endian), packed back to back across blocks:
//
//	[0:4]   crc32 (castagnoli) of bytes [4:recordLen]
//	[4:8]   payload length
//	[8]     kind (1=page image, 2=commit, 3=checkpoint, 4=range, 5=btree op,
//	        6=extent op, 7=undo, 8=chunk, 9=allocator; 0x80 flags a CLR)
//	[9:17]  txn id
//	[17:25] page number (redo records)
//	[25:33] lsn (redo records; 0 for image-mode records)
//	[33:]   payload (redo records)
//
// A zero length+crc marks the end of the log.
//
// The first hdrSize bytes of the region are a persistent header holding a
// magic number, the transaction-id high-water mark, and the LSN fence of
// the last checkpoint. Ids must stay monotonic across checkpoints and
// re-opens — recovery uses "txid went backwards" to detect stale records
// beyond the true tail, and an id reset would let leftovers from earlier
// log passes masquerade as fresh commits. The LSN fence is the second
// seat belt: any record whose LSN predates the last checkpoint is a
// leftover from an earlier generation and is dropped.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/blockdev"
	"repro/internal/redo"
)

// Record kinds. Redo, undo and chunk kinds (1, 4–9) are shared with
// package redo; commit and checkpoint are log-internal.
const (
	kindPage       = redo.KindImage
	kindCommit     = 2
	kindCheckpoint = 3
	kindChunk      = redo.KindChunk
)

const recHdrSize = 33

// Log-region header (start of the first block).
const (
	logMagic   = 0x57414C31 // "WAL1"
	logHdrSize = 24         // magic u32 + pad u32 + nextTx u64 + lsn fence u64
)

// WAL errors.
var (
	ErrFull     = errors.New("wal: log region full")
	ErrCorrupt  = errors.New("wal: corrupt record")
	ErrTornTail = errors.New("wal: torn record at tail") // informational
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Stats counts log activity.
type Stats struct {
	Commits         int64
	Groups          int64 // group-commit rounds (≤ Commits; Commits/Groups is the batching factor)
	Syncs           int64 // device syncs issued by commits (one per group)
	PagesLogged     int64 // redo records appended (images, ranges, ops)
	BytesLogged     int64
	SystemTxns      int64 // auto-committed structure-modification transactions
	Chunks          int64 // mid-transaction chunk flushes (steal / dependency)
	ChunkRecords    int64 // records appended inside chunks
	Checkpoints     int64
	SalvagedCommits int64 // commits acknowledged from the durable frontier after a device error
	Recoveries      int64
	RecordsScanned  int64 // records of every kind the last Recover read from the region
	BytesScanned    int64 // their bytes: the length of the tail that Recover cost
	PagesReplayed   int64 // redo records replayed
	LoserChains     int64 // unresolved chunk chains found by the last Recover
}

// LoserChain is one uncommitted transaction whose records reached the
// log via chunk flushes before the crash. Recover replays its redo
// records ("repeat history") and hands the chain to the caller, who
// executes Undos newest-first through the live structure APIs and then
// commits the compensations with the chain's Tail as the commit chain —
// which resolves the chain, making the undo idempotent across repeated
// crashes.
type LoserChain struct {
	Tail  uint64        // txid of the chain's last chunk
	Undos []redo.Record // KindUndo records, ascending LSN
	// AllocRecs counts the chain's redo.KindAlloc records. The volume's
	// allocator restore is exact for committed history; a loser that
	// allocated or freed is rolled back by logical inverses that do not
	// return the allocator to its old shape, so such a chain sends the
	// open through the reachability walk.
	AllocRecs int
}

// Log is a write-ahead log occupying blocks [start, start+nblocks) of dev.
type Log struct {
	dev    blockdev.Device
	start  uint64
	blocks uint64
	bs     int

	// mu serializes log writes (appends, checkpoint, recovery). head and
	// nextTx are atomics so Begin and Used never block on it: a group
	// leader holds mu across its device sync, and writers preparing
	// their NEXT commit must be able to reach the queue during that sync
	// — that pile-up is where group commit's batching comes from.
	mu     sync.Mutex
	head   atomic.Uint64 // byte offset of next append within the region
	nextTx atomic.Uint64
	buf    []byte // one block staging buffer
	bufBlk uint64 // which block buf holds
	bufOK  bool

	// Group-commit queue. Committers enqueue their transaction and wait;
	// the first non-leader in line becomes leader, drains the whole queue
	// into one contiguous append, and pays a single device sync that
	// releases every waiter. gmu orders only the queue handoff; the log
	// write itself happens under mu.
	gmu    sync.Mutex
	gcond  *sync.Cond
	gqueue []*gcBatch
	gbusy  bool

	// wedged is set (under mu) when a system transaction could not reach
	// the log (region full). From then on every commit fails with ErrFull
	// until a checkpoint resets the log: an unlogged structure
	// modification must not be built upon by any durable commit, and the
	// checkpoint that clears the wedge flushes the modification home.
	wedged bool

	// lsnFence is the LSN high-water persisted by the last checkpoint;
	// recovery drops stamped records at or below it (stale-generation
	// leftovers). maxLSN is the largest LSN seen by the last Recover.
	lsnFence uint64
	maxLSN   uint64

	// losers holds the unresolved chunk chains found by the last Recover.
	losers []LoserChain

	stats Stats
}

// gcBatch is one transaction waiting in the group-commit queue.
type gcBatch struct {
	txn  *Txn
	done bool
	err  error
	// end is the head offset just past this batch's commit record, set
	// once the batch is fully staged. On a device error mid-group it is
	// compared against the durable frontier to decide whether recovery
	// will replay this batch (see failGroup).
	end uint64
}

// New creates (or opens for recovery) a log over the given region.
// Call Recover before appending to an existing log.
func New(dev blockdev.Device, start, nblocks uint64) *Log {
	l := &Log{
		dev:    dev,
		start:  start,
		blocks: nblocks,
		bs:     dev.BlockSize(),
		buf:    make([]byte, dev.BlockSize()),
	}
	l.nextTx.Store(1)
	l.head.Store(logHdrSize)
	l.gcond = sync.NewCond(&l.gmu)
	return l
}

// writeHeaderBlockLocked persists the id high-water mark and the LSN
// fence, zeroing the rest of the first block (so a following Recover sees
// an empty log).
func (l *Log) writeHeaderBlockLocked() error {
	blk := make([]byte, l.bs)
	binary.LittleEndian.PutUint32(blk[0:], logMagic)
	binary.LittleEndian.PutUint64(blk[8:], l.nextTx.Load())
	binary.LittleEndian.PutUint64(blk[16:], l.lsnFence)
	if err := l.dev.WriteBlock(l.start, blk); err != nil {
		return err
	}
	return l.dev.Sync()
}

// Capacity returns the usable log size in bytes.
func (l *Log) Capacity() uint64 { return l.blocks * uint64(l.bs) }

// Stats returns a snapshot of log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Txn is an open transaction accumulating redo records.
type Txn struct {
	l     *Log
	id    uint64
	chain uint64 // txid of the last chunk flushed for this transaction
	recs  []redo.Record
}

// SetChain names the last chunk previously flushed for this transaction
// (0 for none). The commit record carries it so recovery can resolve the
// whole chunk chain as committed.
func (t *Txn) SetChain(last uint64) { t.chain = last }

// Begin opens a transaction. Its id is zero until commit: the group
// committer assigns ids at append time, so they are monotone in log
// order even when concurrent transactions commit in a different order
// than they began (recovery's stale-suffix fence depends on that
// monotonicity).
func (l *Log) Begin() *Txn {
	return &Txn{l: l}
}

// LogPage records the post-image of page no. The data is copied. Image
// records carry LSN 0 and replay in log order (the image-logging mode).
func (t *Txn) LogPage(no uint64, data []byte) {
	c := make([]byte, len(data))
	copy(c, data)
	t.recs = append(t.recs, redo.Record{Page: no, Kind: redo.KindImage, Data: c})
}

// LogPageOwned records the post-image of page no without copying; the
// caller hands over ownership of data (the volume's per-txn write sets
// are already private copies, so a second copy here would be waste).
func (t *Txn) LogPageOwned(no uint64, data []byte) {
	t.recs = append(t.recs, redo.Record{Page: no, Kind: redo.KindImage, Data: data})
}

// LogRecord stages one physiological redo record (already LSN-stamped by
// the pager).
func (t *Txn) LogRecord(r redo.Record) {
	t.recs = append(t.recs, r)
}

// PageCount returns the number of redo records staged in this transaction.
func (t *Txn) PageCount() int { return len(t.recs) }

// Commit makes the transaction durable via group commit: the caller's
// batch joins a queue; a leader drains the queue, appends every waiting
// transaction's page images plus commit records in one contiguous write,
// and issues a single device sync that releases all of them. N concurrent
// committers therefore pay one sync, not N. On ErrFull (this batch alone
// does not fit in the remaining log space) the caller should checkpoint;
// other batches in the same group are unaffected.
func (t *Txn) Commit() error {
	return t.commit(nil)
}

// CommitWith is Commit with the page images produced by fill, invoked
// atomically with the transaction's queue insertion. Queue order is
// append order is txid order, so a write set snapshotted inside fill can
// never be enqueued AFTER a fresher image of one of its pages committed
// with a smaller txid — the inversion that would let recovery replay a
// stale image over an acknowledged update. Returns nil without logging
// anything if fill stages no pages.
func (t *Txn) CommitWith(fill func(*Txn)) error {
	return t.commit(fill)
}

func (t *Txn) commit(fill func(*Txn)) error {
	l := t.l
	b := &gcBatch{txn: t}
	l.gmu.Lock()
	if fill != nil {
		fill(t)
		// A transaction with flushed chunks must still write its commit
		// record even when nothing new is staged — the chain payload is
		// what resolves the chunks as committed at recovery.
		if len(t.recs) == 0 && t.chain == 0 {
			l.gmu.Unlock()
			return nil
		}
	}
	l.gqueue = append(l.gqueue, b)
	for !b.done && l.gbusy {
		l.gcond.Wait()
	}
	if b.done {
		// A leader picked this batch up and committed (or failed) it.
		l.gmu.Unlock()
		return b.err
	}
	// Become leader. Before draining, open a short gather window: yield
	// the scheduler until the queue stops growing, so committers that are
	// runnable but not yet enqueued join this group instead of forcing
	// their own sync. A lone committer pays one Gosched (~µs); a busy
	// system converges toward one sync per scheduling wave of writers.
	l.gbusy = true
	prev := len(l.gqueue)
	l.gmu.Unlock()
	for i := 0; i < 4; i++ {
		runtime.Gosched()
		l.gmu.Lock()
		n := len(l.gqueue)
		l.gmu.Unlock()
		if n == prev {
			break
		}
		prev = n
	}
	l.gmu.Lock()
	group := l.gqueue
	l.gqueue = nil
	l.gmu.Unlock()

	l.commitGroup(group)

	l.gmu.Lock()
	l.gbusy = false
	for _, gb := range group {
		gb.done = true
	}
	l.gcond.Broadcast()
	l.gmu.Unlock()
	return b.err
}

// commitGroup appends every batch in the group and syncs once, filling in
// per-batch errors. A batch that does not fit fails with ErrFull without
// affecting its neighbours; a device error wedges the log and resolves
// each batch against the durable frontier (see failGroup) so the verdict
// reported to the caller matches what recovery will replay.
func (l *Log) commitGroup(group []*gcBatch) {
	l.mu.Lock()
	defer l.mu.Unlock()

	appended := 0
	for _, b := range group {
		if l.wedged {
			// An unlogged structure modification is pending a checkpoint;
			// nothing may commit on top of it.
			b.err = fmt.Errorf("%w: log wedged pending checkpoint", ErrFull)
			continue
		}
		// Space check: all records + commit + end marker must fit. A
		// commit resolving a chunk chain carries the chain txid as its
		// payload (8 bytes); plain commits stay payload-free, keeping the
		// committed-path wire bytes identical to the redo-only protocol.
		var chainPayload []byte
		if b.txn.chain != 0 {
			chainPayload = make([]byte, 8)
			binary.LittleEndian.PutUint64(chainPayload, b.txn.chain)
		}
		need := uint64(recHdrSize + len(chainPayload) + 8)
		for _, r := range b.txn.recs {
			need += recHdrSize + uint64(len(r.Data))
		}
		if l.head.Load()+need > l.Capacity() {
			b.err = fmt.Errorf("%w: need %d bytes, %d available", ErrFull, need, l.Capacity()-l.head.Load())
			continue
		}
		// Definitive id, assigned in append order.
		id := l.nextTx.Add(1) - 1
		b.txn.id = id
		for _, r := range b.txn.recs {
			if b.err = l.appendLocked(r.Kind, id, r.Page, r.LSN, r.Data); b.err != nil {
				l.failGroup(group, b.err)
				return
			}
			l.stats.PagesLogged++
		}
		if b.err = l.appendLocked(kindCommit, id, 0, 0, chainPayload); b.err != nil {
			l.failGroup(group, b.err)
			return
		}
		b.end = l.head.Load()
		appended++
	}
	if appended == 0 {
		return
	}
	if err := l.terminateLocked(); err != nil {
		l.failGroup(group, err)
		return
	}
	if err := l.dev.Sync(); err != nil {
		l.failGroup(group, err)
		return
	}
	l.stats.Syncs++
	l.stats.Groups++
	for _, b := range group {
		if b.err == nil {
			l.stats.Commits++
			b.txn.recs = nil
		}
	}
}

// terminateLocked writes the end marker (zero crc + zero length) that the
// NEXT append overwrites, rewinds head so the marker is not part of the
// log, and flushes the staging buffer. Without the marker, records left
// over from a previous log generation could sit immediately after the
// tail with valid CRCs and recovery would replay their stale contents
// over newer state.
func (l *Log) terminateLocked() error {
	if err := l.writeBytesLocked(make([]byte, 8)); err != nil {
		return err
	}
	l.head.Add(^uint64(7)) // head -= 8
	return l.flushBufLocked()
}

// AppendSystem appends recs plus a commit record as one auto-committed
// transaction, without syncing the device: a system transaction (page
// split, merge) must be *ordered before* any commit that builds on the
// modified structure, and the log is sequential, so the next group sync
// or checkpoint makes it durable together with (or before) everything
// that depends on it. Structure modifications are logged this way so
// recovery redoes them regardless of whether the enclosing operation's
// transaction committed — a committed neighbour's records may target
// pages the modification created.
//
// If the records do not fit, the log wedges: every subsequent commit
// fails with ErrFull until a checkpoint (which flushes the unlogged
// modification home) resets the region.
func (l *Log) AppendSystem(recs []redo.Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged {
		return fmt.Errorf("%w: log wedged pending checkpoint", ErrFull)
	}
	need := uint64(recHdrSize + 8)
	for _, r := range recs {
		need += recHdrSize + uint64(len(r.Data))
	}
	if l.head.Load()+need > l.Capacity() {
		l.wedged = true
		return fmt.Errorf("%w: system txn needs %d bytes, %d available", ErrFull, need, l.Capacity()-l.head.Load())
	}
	id := l.nextTx.Add(1) - 1
	for _, r := range recs {
		if err := l.appendLocked(r.Kind, id, r.Page, r.LSN, r.Data); err != nil {
			l.wedged = true // tail state unknown: fail stop until checkpoint
			return err
		}
		l.stats.PagesLogged++
	}
	if err := l.appendLocked(kindCommit, id, 0, 0, nil); err != nil {
		l.wedged = true
		return err
	}
	l.stats.SystemTxns++
	if err := l.terminateLocked(); err != nil {
		l.wedged = true
		return err
	}
	return nil
}

// AppendChunk appends recs as one mid-transaction chunk: the records of
// an open (uncommitted) transaction forced to the log early, because the
// pager wants to steal one of their dirty pages or a committing
// neighbour depends on them. The chunk gets its own txid (returned) and
// is terminated by a KindChunk marker whose payload names prev — the
// txid of the same transaction's previous chunk (0 for the first) — so
// recovery can stitch the chunks back into one chain. The chain is
// resolved when a commit record later names its last chunk; an
// unresolved chain is a loser: recovery replays its records ("repeat
// history") and then executes its undo records backward.
//
// Like AppendSystem, AppendChunk does not sync: the caller syncs before
// acting on the durability (the steal path syncs before writing the
// stolen page home; the dependency path rides the depending commit's
// group sync, which covers every earlier byte of the sequential log).
func (l *Log) AppendChunk(prev uint64, recs []redo.Record) (uint64, error) {
	if len(recs) == 0 {
		return prev, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged {
		return 0, fmt.Errorf("%w: log wedged pending checkpoint", ErrFull)
	}
	need := uint64(recHdrSize + 8 + 8) // chunk marker + its payload + end marker
	for _, r := range recs {
		need += recHdrSize + uint64(len(r.Data))
	}
	if l.head.Load()+need > l.Capacity() {
		l.wedged = true
		return 0, fmt.Errorf("%w: chunk needs %d bytes, %d available", ErrFull, need, l.Capacity()-l.head.Load())
	}
	id := l.nextTx.Add(1) - 1
	for _, r := range recs {
		if err := l.appendLocked(r.Kind, id, r.Page, r.LSN, r.Data); err != nil {
			l.wedged = true
			return 0, err
		}
		l.stats.PagesLogged++
		l.stats.ChunkRecords++
	}
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], prev)
	if err := l.appendLocked(kindChunk, id, 0, 0, payload[:]); err != nil {
		l.wedged = true
		return 0, err
	}
	l.stats.Chunks++
	if err := l.terminateLocked(); err != nil {
		l.wedged = true
		return 0, err
	}
	return id, nil
}

// failGroup resolves a group after a device error. The log wedges either
// way — no further appends until a checkpoint resets the region — but the
// per-batch verdicts must agree with what recovery will do, and "error
// everything" does not: the staging buffer flushes whenever head crosses
// a block boundary, so a batch's records and commit record can already be
// durable when a later write in the same group fails. Erroring such a
// batch resurrects it at recovery — the caller was told the operation
// failed, yet replay applies it. failGroup instead computes the exact
// durable frontier and acknowledges every batch whose commit record lies
// at or below it; batches recovery cannot commit (their commit record is
// past the frontier, so replay's CRC/prefix scan stops before it) fail.
func (l *Log) failGroup(group []*gcBatch, err error) {
	l.wedged = true
	frontier := l.durableFrontierLocked()
	for _, b := range group {
		if b.err != nil {
			continue // ErrFull or the failing append's own error
		}
		if b.end != 0 && b.end <= frontier {
			// Commit record provably durable: recovery will replay this
			// transaction, so its caller must be told it committed.
			l.stats.Commits++
			l.stats.SalvagedCommits++
			b.txn.recs = nil
			continue
		}
		b.err = err
	}
}

// durableFrontierLocked returns the byte offset up to which appended log
// bytes are known to be on the device after a mid-append failure. Blocks
// below the staging buffer's block were flushed when head crossed them;
// for the staging block itself the device content is read back and
// compared against the intended bytes, so a torn flush that persisted a
// prefix of the block is credited exactly. If the readback itself fails
// the staging block counts as lost — the conservative direction here
// errors a possibly-durable batch, the same exposure real hardware has
// when a device stops answering reads, and recovery's consistency checks
// still hold either way.
func (l *Log) durableFrontierLocked() uint64 {
	head := l.head.Load()
	if !l.bufOK {
		return head
	}
	base := l.bufBlk * uint64(l.bs)
	if head <= base {
		// terminateLocked's rewind can park head just below a freshly
		// opened staging block; everything at or below head is flushed.
		return head
	}
	limit := head - base
	if limit > uint64(l.bs) {
		limit = uint64(l.bs)
	}
	tmp := make([]byte, l.bs)
	if rerr := l.dev.ReadBlock(l.start+l.bufBlk, tmp); rerr != nil {
		return base
	}
	var n uint64
	for n < limit && tmp[n] == l.buf[n] {
		n++
	}
	return base + n
}

// Abort discards the staged records; nothing was written.
func (t *Txn) Abort() { t.recs = nil }

// appendLocked writes one record at head, buffering partial blocks.
func (l *Log) appendLocked(kind uint8, txid, pageNo, lsn uint64, payload []byte) error {
	rec := make([]byte, recHdrSize+len(payload))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(payload)))
	rec[8] = kind
	binary.LittleEndian.PutUint64(rec[9:], txid)
	binary.LittleEndian.PutUint64(rec[17:], pageNo)
	binary.LittleEndian.PutUint64(rec[25:], lsn)
	copy(rec[recHdrSize:], payload)
	crc := crc32.Checksum(rec[4:], crcTable)
	binary.LittleEndian.PutUint32(rec[0:], crc)

	l.stats.BytesLogged += int64(len(rec))
	return l.writeBytesLocked(rec)
}

// writeBytesLocked streams bytes into the region at head via the staging
// buffer.
func (l *Log) writeBytesLocked(p []byte) error {
	for len(p) > 0 {
		head := l.head.Load()
		blk := head / uint64(l.bs)
		off := int(head % uint64(l.bs))
		if blk >= l.blocks {
			return ErrFull
		}
		if !l.bufOK || l.bufBlk != blk {
			if err := l.flushBufLocked(); err != nil {
				return err
			}
			if off != 0 {
				// Re-read partially written block.
				if err := l.dev.ReadBlock(l.start+blk, l.buf); err != nil {
					return err
				}
			} else {
				for i := range l.buf {
					l.buf[i] = 0
				}
			}
			l.bufBlk = blk
			l.bufOK = true
		}
		n := copy(l.buf[off:], p)
		p = p[n:]
		l.head.Add(uint64(n))
	}
	return nil
}

func (l *Log) flushBufLocked() error {
	if !l.bufOK {
		return nil
	}
	if err := l.dev.WriteBlock(l.start+l.bufBlk, l.buf); err != nil {
		return err
	}
	// Keep the buffer contents valid for continued appends to this block.
	return nil
}

// Checkpoint declares all committed pages durably home and resets the
// log, persisting the transaction-id high-water mark and the LSN fence in
// the region header so both stay monotonic across generations. lsnFence
// is the volume's current LSN (every record of the next generation will
// be stamped above it; recovery drops stamped records at or below the
// fence as stale-generation leftovers). The caller must have flushed the
// pager first; the reset also clears a wedged log — the unlogged
// structure modification that wedged it is home now.
func (l *Log) Checkpoint(lsnFence uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsnFence > l.lsnFence {
		l.lsnFence = lsnFence
	}
	if err := l.writeHeaderBlockLocked(); err != nil {
		return err
	}
	l.head.Store(logHdrSize)
	l.bufOK = false
	l.wedged = false
	l.stats.Checkpoints++
	return nil
}

// Wedged reports whether the log is unusable pending a checkpoint.
func (l *Log) Wedged() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wedged
}

// Wedge marks the log unusable until the next checkpoint. Callers use it
// when a protective record (a first-touch base image) could not be
// produced: blocking every commit until a checkpoint flushes the
// unprotected state home beats acknowledging commits a crash could not
// recover.
func (l *Log) Wedge() {
	l.mu.Lock()
	l.wedged = true
	l.mu.Unlock()
}

// Used returns the bytes currently appended since the last checkpoint.
// Lock-free (head is atomic): commits consult it for the checkpoint
// high-water check, and must not stall behind a group leader's sync.
func (l *Log) Used() uint64 {
	return l.head.Load() - logHdrSize
}

// Recover scans the log and replays redo records through apply, ordered
// by LSN (mutation order; records without an LSN — image-mode — keep log
// order under the stable sort). Replay "repeats history": committed
// transactions, resolved chunk chains, AND loser chains (chunks never
// terminated by a commit) all replay — losers must be physically present
// before their logical inverses can run; the caller fetches them from
// Losers afterwards and rolls them back. Records of transactions that
// never reached the log through a commit, chunk, or system append are
// torn appends and are dropped. Undo records are never passed to apply.
// It tolerates a torn tail (CRC mismatch) by stopping there, drops
// records whose LSN predates the last checkpoint's fence, and positions
// head for continued appends. Returns the number of records replayed;
// MaxLSN afterwards reports the largest LSN seen so the volume can seed
// its LSN counter past it.
func (l *Log) Recover(apply func(r redo.Record) error) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	type rec struct {
		kind   uint8
		txid   uint64
		pageNo uint64
		lsn    uint64
		data   []byte
	}
	var recs []rec
	pos := uint64(logHdrSize)

	// The header survives checkpoints and carries the id high-water mark
	// and the LSN fence.
	var hdrTx, hdrFence uint64
	if err := l.dev.ReadBlock(l.start, l.buf); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(l.buf[0:]) == logMagic {
		hdrTx = binary.LittleEndian.Uint64(l.buf[8:])
		hdrFence = binary.LittleEndian.Uint64(l.buf[16:])
	}

	// The scan only moves forward, so one block buffer serves it: the
	// header read above left block 0 in l.buf, and each later block is
	// read once, when the scan first reaches it.
	held := uint64(0)
	readAt := func(off uint64, p []byte) error {
		for len(p) > 0 {
			blk := off / uint64(l.bs)
			bo := int(off % uint64(l.bs))
			if blk >= l.blocks {
				return ErrFull
			}
			if blk != held {
				if err := l.dev.ReadBlock(l.start+blk, l.buf); err != nil {
					return err
				}
				held = blk
			}
			n := copy(p, l.buf[bo:])
			p = p[n:]
			off += uint64(n)
		}
		return nil
	}

	var lastTxid uint64
	for {
		if pos+8 > l.Capacity() {
			break
		}
		var pre [8]byte
		if err := readAt(pos, pre[:]); err != nil {
			return 0, err
		}
		crc := binary.LittleEndian.Uint32(pre[0:])
		plen := binary.LittleEndian.Uint32(pre[4:])
		if crc == 0 && plen == 0 {
			break // end marker
		}
		if pos+recHdrSize+uint64(plen) > l.Capacity() {
			break // torn tail
		}
		full := make([]byte, recHdrSize+int(plen))
		copy(full, pre[:])
		if err := readAt(pos+8, full[8:]); err != nil {
			return 0, err
		}
		if crc32.Checksum(full[4:], crcTable) != crc {
			break // torn tail: stop scanning
		}
		r := rec{
			kind:   full[8],
			txid:   binary.LittleEndian.Uint64(full[9:]),
			pageNo: binary.LittleEndian.Uint64(full[17:]),
			lsn:    binary.LittleEndian.Uint64(full[25:]),
		}
		// Transaction ids are globally monotonic (never reset, even by
		// checkpoints), and the log is written front to back — so a
		// record whose txid goes backwards is a leftover from an earlier
		// log pass sitting beyond the true tail. Replaying it would
		// regress pages to stale images. Stop here. (The end marker
		// written after each commit also terminates the log, but a crash
		// between the commit record reaching the device and the marker
		// doing so leaves exactly this dangling-stale-suffix window.)
		if r.txid < lastTxid {
			break
		}
		lastTxid = r.txid
		if plen > 0 {
			r.data = full[recHdrSize:]
		}
		recs = append(recs, r)
		pos += recHdrSize + uint64(plen)
	}

	committed := map[uint64]bool{}
	chunkPrev := map[uint64]uint64{} // chunk txid → previous chunk txid (0 = first)
	isChunk := map[uint64]bool{}
	var chains []uint64 // last-chunk txids named by commit records
	maxTx, maxLSN := uint64(0), uint64(0)
	for _, r := range recs {
		switch r.kind {
		case kindCommit:
			committed[r.txid] = true
			if len(r.data) >= 8 {
				if c := binary.LittleEndian.Uint64(r.data); c != 0 {
					chains = append(chains, c)
				}
			}
		case kindChunk:
			isChunk[r.txid] = true
			if len(r.data) >= 8 {
				chunkPrev[r.txid] = binary.LittleEndian.Uint64(r.data)
			}
		}
		if r.txid > maxTx {
			maxTx = r.txid
		}
		if r.lsn > maxLSN {
			maxLSN = r.lsn
		}
	}
	// Resolve chunk chains named by commits: every chunk reachable
	// backward from a committed chain tail is committed.
	for _, c := range chains {
		for c != 0 && !committed[c] {
			committed[c] = true
			c = chunkPrev[c]
		}
	}
	// Remaining chunks are losers. Group them into chains (tail = the
	// chunk no other loser chunk names as its predecessor), collecting
	// each chain's undo records for the caller to roll back.
	loserOf := map[uint64]int{} // chunk txid → index into l.losers
	l.losers = nil
	{
		referenced := map[uint64]bool{}
		var loserIDs []uint64
		for id := range isChunk {
			if !committed[id] {
				loserIDs = append(loserIDs, id)
			}
		}
		sort.Slice(loserIDs, func(i, j int) bool { return loserIDs[i] < loserIDs[j] })
		loserSet := map[uint64]bool{}
		for _, id := range loserIDs {
			loserSet[id] = true
		}
		for _, id := range loserIDs {
			if p := chunkPrev[id]; p != 0 && loserSet[p] {
				referenced[p] = true
			}
		}
		for _, tail := range loserIDs {
			if referenced[tail] {
				continue
			}
			idx := len(l.losers)
			l.losers = append(l.losers, LoserChain{Tail: tail})
			for c := tail; c != 0 && loserSet[c]; c = chunkPrev[c] {
				loserOf[c] = idx
			}
		}
	}
	// Replay in LSN order: transactions append in commit order but mutate
	// in LSN order, and per-page correctness requires the latter. The
	// sort is stable so image-mode records (LSN 0) keep their log order.
	// Repeat history: committed transactions AND loser chunks replay;
	// undo records replay nowhere — losers' undo records are collected
	// for the caller, committed transactions' are dead weight already
	// paid for by the chunk flush that wrote them.
	live := recs[:0]
	for _, r := range recs {
		switch r.kind {
		case kindCommit, kindCheckpoint, kindChunk:
			continue
		}
		_, loser := loserOf[r.txid]
		if !committed[r.txid] && !loser {
			continue // torn append: never terminated, drop
		}
		if r.lsn > 0 && r.lsn <= hdrFence {
			continue // stale-generation leftover beyond the fence
		}
		if idx, ok := loserOf[r.txid]; ok && redo.BaseKind(r.kind) == redo.KindAlloc {
			l.losers[idx].AllocRecs++
		}
		if redo.BaseKind(r.kind) == redo.KindUndo {
			if idx, ok := loserOf[r.txid]; ok {
				l.losers[idx].Undos = append(l.losers[idx].Undos, redo.Record{
					LSN: r.lsn, Page: r.pageNo, Kind: r.kind, Data: r.data,
				})
			}
			continue
		}
		live = append(live, r)
	}
	for i := range l.losers {
		u := l.losers[i].Undos
		sort.SliceStable(u, func(a, b int) bool { return u[a].LSN < u[b].LSN })
	}
	sort.SliceStable(live, func(i, j int) bool { return live[i].lsn < live[j].lsn })
	replayed := 0
	for _, r := range live {
		if apply != nil {
			if err := apply(redo.Record{LSN: r.lsn, Page: r.pageNo, Kind: redo.BaseKind(r.kind), Data: r.data}); err != nil {
				return replayed, err
			}
		}
		replayed++
	}
	l.stats.LoserChains += int64(len(l.losers))
	l.head.Store(pos)
	l.bufOK = false
	next := maxTx + 1
	if hdrTx > next {
		next = hdrTx
	}
	l.nextTx.Store(next)
	if hdrFence > maxLSN {
		maxLSN = hdrFence
	}
	l.maxLSN = maxLSN
	if hdrFence > l.lsnFence {
		l.lsnFence = hdrFence
	}
	l.stats.Recoveries++
	l.stats.RecordsScanned = int64(len(recs))
	l.stats.BytesScanned = int64(pos - logHdrSize)
	l.stats.PagesReplayed += int64(replayed)
	return replayed, nil
}

// MaxLSN returns the largest LSN observed by the last Recover (including
// the persisted checkpoint fence). The volume seeds its LSN counter past
// it so LSNs stay monotonic across log generations.
func (l *Log) MaxLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxLSN
}

// Fence returns the LSN fence of the log generation now in the region:
// the value the last checkpoint persisted (or the last Recover read). The
// volume stamps its allocator snapshot with it, and trusts a snapshot only
// when the stamps agree.
func (l *Log) Fence() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsnFence
}

// Losers returns the unresolved chunk chains found by the last Recover —
// uncommitted transactions whose records were stolen into the log before
// the crash. Their redo records have already been replayed (repeat
// history); the caller must execute each chain's Undos newest-first and
// commit the compensations with SetChain(chain.Tail), which resolves the
// chain so a crash during (or after) the rollback never undoes twice.
func (l *Log) Losers() []LoserChain {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.losers
}
