// Package wal implements the write-ahead log on a reserved block range
// of the volume device: an append-only sequence of typed redo records,
// undo records, and the commit, chunk and system-transaction markers that
// say which of them count.
//
// The paper leaves transactionality open ("in hFAD, the OSD may be
// transactional, but this is an implementation decision, not a
// requirement"); this repository decides it: every volume runs on this
// log.
//
// Protocol (ARIES: steal / no-force, group commit):
//
//  1. An operation mutates pages in the pager cache and stages, per
//     mutation, a physiological redo record (a byte range, a typed btree
//     or extent op, an allocator mutation) stamped with an LSN under the
//     page latch, and the logical inverse that would undo it.
//  2. At commit the operation's records are handed to the group
//     committer: a leader drains the queue of pending commit batches,
//     appends each as one commit frame in one contiguous write, and
//     issues a single device sync that releases every waiter — N
//     concurrent committers pay one sync.
//  3. Pages are NOT forced home at commit. A dirty page — even one with
//     uncommitted edits — may be written home once every record staged
//     against it is durably logged; to get there the pager flushes an open
//     operation's records early as a *chunk* (AppendChunk), chained to the
//     operation's earlier chunks and resolved by its commit frame.
//     Structure modifications (splits, merges, first-touch base images)
//     are auto-committed *system transactions* (AppendSystem). Chunks and
//     system transactions wait in the staging buffer: the log writes a
//     block when it fills or when a sync needs it — a commit's group sync,
//     or Sync before pages are written home — so each block is written
//     once per sync, not once per append.
//  4. A checkpoint (run by the commit that takes the log past its
//     high-water mark, or by Sync/Close) flushes every dirty page and
//     resets the log behind an LSN fence.
//
// Recover scans the region once, front to back, through one block buffer,
// and "repeats history": committed transactions, system transactions and
// unresolved chunk chains (losers) all replay, in LSN (mutation) order;
// torn or never-terminated tails are detected by CRC and dropped. The
// caller then rolls each loser chain back through its undo records
// (Losers).
//
// Frame layout. Each append — a commit batch, a system transaction or a
// chunk — is one CRC-checked frame, the unit recovery keeps or drops
// whole; frames are packed back to back across blocks (little-endian):
//
//	[0:4]     n, the length of the body
//	[4:4+n]   body
//	[4+n:8+n] crc32 (castagnoli) of bytes [0:4+n]
//	body:
//	  kind  byte     what terminates the frame: 2 = commit, 8 = chunk
//	  txid  uvarint  the frame's transaction id
//	  link  uvarint  commit: the last chunk of the chain it resolves;
//	                 chunk: the same transaction's previous chunk (0 = none)
//	  count uvarint  records that follow
//	  each record:
//	    kind  byte    redo kind (1=page image, 4=range, 5=btree op,
//	                  6=extent op, 7=undo, 9=allocator, 10=wrote,
//	                  11=built; 0x80 flags a CLR)
//	    len   uvarint payload length
//	    page  varint  page − the previous record's page (zigzag; 0 before
//	                  the first record of the frame)
//	    lsn   varint  lsn − the previous record's lsn (zigzag, likewise)
//	    payload
//
// A small record costs its payload and about 6 bytes. A zero length marks
// the end of the log. The CRC comes last so that a frame is whole only
// once its last bytes are on the device: a torn frame's missing tail is
// whatever the region held before, and a zero-filled tail (a page image
// of zeros) over a zeroed region would match it — the frame's own CRC
// trailer matches stale bytes only by a 2^-32 chance.
//
// The first logHdrSize bytes of the region are a persistent header holding
// a magic number, the transaction-id high-water mark, and the LSN fence of
// the last checkpoint. Ids must stay monotonic across checkpoints and
// re-opens — recovery uses "txid went backwards" to detect stale frames
// beyond the true tail, and an id reset would let leftovers from earlier
// log passes masquerade as fresh commits. The LSN fence is the second
// seat belt: any record whose LSN predates the last checkpoint is a
// leftover from an earlier generation and is dropped.
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/blockdev"
	"repro/internal/redo"
)

// Frame kinds: what terminates a frame. A chunk frame's kind is package
// redo's KindChunk; commit is log-internal.
const (
	kindCommit = 2
	kindChunk  = redo.KindChunk
)

// A frame's length field (and the end marker, a zero length), and the
// bytes it adds to its body: the length and the CRC trailer.
const (
	lenSize       = 4
	frameOverhead = lenSize + 4
)

// Log-region header (start of the first block).
const (
	logMagic   = 0x57414C32 // "WAL2": one frame per append
	logHdrSize = 24         // magic u32 + pad u32 + nextTx u64 + lsn fence u64
)

// WAL errors.
var (
	ErrFull = errors.New("wal: log region full")
	// ErrCorrupt: a frame whose CRC holds does not decode, or a record
	// that cannot be logged. This package wrote neither.
	ErrCorrupt = errors.New("wal: corrupt frame")
	// ErrFormat: the region's header names another log format.
	ErrFormat = errors.New("wal: log region of another format")
)

// errTorn is a frame whose length or CRC does not hold: the tail of a
// write the device never finished. Recover stops there.
var errTorn = errors.New("wal: torn frame")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Stats counts log activity.
type Stats struct {
	Commits         int64
	Groups          int64 // group-commit rounds (≤ Commits; Commits/Groups is the batching factor)
	Syncs           int64 // device syncs issued by commits (one per group)
	PagesLogged     int64 // redo records appended (images, ranges, ops)
	BytesLogged     int64 // frame bytes appended
	BlockWrites     int64 // device block writes: filled or synced staging blocks, and region headers
	SystemTxns      int64 // auto-committed structure-modification transactions
	Chunks          int64 // mid-transaction chunk flushes (steal / dependency)
	ChunkRecords    int64 // records appended inside chunks
	Checkpoints     int64
	SalvagedCommits int64 // commits acknowledged from the durable frontier after a device error
	Recoveries      int64
	RecordsScanned  int64 // records the last Recover decoded from the region's frames
	BytesScanned    int64 // those frames' bytes: the length of the tail that Recover cost
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
	// bufDirty: buf holds appended bytes the device has not been given.
	bufDirty bool
	// enc is the frame being appended, reused from append to append.
	enc []byte

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
	// end is the head offset just past this batch's frame, set once the
	// batch is fully staged. On a device error mid-group it is
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
	l.stats.BlockWrites++
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
// (0 for none). The commit frame carries it so recovery can resolve the
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

// LogRecord stages one physiological redo record, already LSN-stamped by
// the pager; a record with LSN 0 fails the commit with ErrCorrupt.
func (t *Txn) LogRecord(r redo.Record) {
	t.recs = append(t.recs, r)
}

// PageCount returns the number of redo records staged in this transaction.
func (t *Txn) PageCount() int { return len(t.recs) }

// Commit makes the transaction durable via group commit: the caller's
// batch joins a queue; a leader drains the queue, appends every waiting
// transaction as one commit frame in one contiguous write, and issues a
// single device sync that releases all of them. N concurrent
// committers therefore pay one sync, not N. On ErrFull (this batch alone
// does not fit in the remaining log space) the caller should checkpoint;
// other batches in the same group are unaffected.
func (t *Txn) Commit() error {
	l := t.l
	b := &gcBatch{txn: t}
	l.gmu.Lock()
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
		b.txn.id, b.err = l.appendTxnLocked(b.txn.recs, kindCommit, b.txn.chain)
		if errors.Is(b.err, ErrFull) || errors.Is(b.err, ErrCorrupt) {
			continue // this batch alone, and nothing written: its neighbours still commit
		}
		if b.err != nil {
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
	if err := l.flushBufLocked(); err != nil {
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

// terminateLocked puts the end marker (a zero length) that the NEXT
// append overwrites into the staging buffer, and rewinds head so the
// marker is not part of the log. Without the marker, frames left over
// from a previous log generation could sit immediately after the tail
// with valid CRCs and recovery would replay their stale contents over
// newer state. The marker reaches the device with the block that holds
// it: whichever of a block filling, a commit or Sync writes it first.
func (l *Log) terminateLocked() error {
	var end [lenSize]byte
	if err := l.writeBytesLocked(end[:]); err != nil {
		return err
	}
	l.head.Add(^uint64(lenSize - 1)) // head -= lenSize
	return nil
}

// Sync writes the staging block, if it holds bytes the device has not
// been given, and syncs the device: afterwards every byte appended so far
// is durable. Whoever writes pages home first calls it — the pager before
// a steal, the checkpoint before its flush — so write-ahead holds however
// long the appends it covers waited in the buffer.
func (l *Log) Sync() error {
	l.mu.Lock()
	err := l.flushBufLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.dev.Sync()
}

// AppendSystem appends recs as one auto-committed transaction, a commit
// frame, without a device write or sync: the records wait in the
// staging buffer. A system transaction (page split, merge, base image)
// must be *ordered before* any commit that builds on the modified
// structure, and the log is sequential, so the next group commit, Sync or
// filled block writes it together with (or before) everything that
// depends on it. Structure modifications are logged this way so recovery
// redoes them regardless of whether the enclosing operation's transaction
// committed — a committed neighbour's records may target pages the
// modification created.
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
	_, err := l.appendTxnLocked(recs, kindCommit, 0)
	if err == nil {
		l.stats.SystemTxns++
		err = l.terminateLocked()
	}
	if err != nil {
		l.wedged = true // unlogged, or tail state unknown: fail stop until checkpoint
	}
	return err
}

// AppendChunk appends recs as one mid-transaction chunk: the records of
// an open (uncommitted) transaction forced to the log early, because the
// pager wants to steal one of their dirty pages or a committing
// neighbour depends on them. The chunk is a frame of kind KindChunk with
// its own txid (returned) whose link names prev — the txid of the same
// transaction's previous chunk (0 for the first) — so recovery can stitch
// the chunks back into one chain. The chain is resolved when a commit
// frame later names its last chunk; an
// unresolved chain is a loser: recovery replays its records ("repeat
// history") and then executes its undo records backward.
//
// Like AppendSystem, AppendChunk neither writes nor syncs the device: the
// caller makes the chunk durable before acting on it (the steal path
// calls Sync before writing the stolen page home; the dependency path
// rides the depending commit's group write and sync, which cover every
// earlier byte of the sequential log).
func (l *Log) AppendChunk(prev uint64, recs []redo.Record) (uint64, error) {
	if len(recs) == 0 {
		return prev, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id, err := l.appendTxnLocked(recs, kindChunk, prev)
	if err == nil {
		l.stats.ChunkRecords += int64(len(recs))
		l.stats.Chunks++
		err = l.terminateLocked()
	}
	if err != nil {
		l.wedged = true
		return 0, err
	}
	return id, nil
}

// appendTxnLocked appends recs as one frame of the given kind and link
// under a fresh id. It fails, having written nothing, with ErrFull when
// the log is wedged or the frame and the end marker after it do not fit
// (so no later write runs out of room), and with ErrCorrupt when a record
// is not stamped; the caller decides whether that wedges the log. Any
// other error is the device's, after a partial write.
func (l *Log) appendTxnLocked(recs []redo.Record, kind uint8, link uint64) (uint64, error) {
	if l.wedged {
		// An unlogged structure modification is pending a checkpoint;
		// nothing may commit on top of it.
		return 0, fmt.Errorf("%w: log wedged pending checkpoint", ErrFull)
	}
	// Definitive id, assigned in append order.
	id := l.nextTx.Load()
	frame, err := appendFrame(l.enc[:0], kind, id, link, recs)
	l.enc = frame
	if err != nil {
		return 0, err
	}
	if need := uint64(len(frame)) + lenSize; l.head.Load()+need > l.Capacity() {
		return 0, fmt.Errorf("%w: need %d bytes, %d available", ErrFull, need, l.Capacity()-l.head.Load())
	}
	l.nextTx.Store(id + 1)
	l.stats.PagesLogged += int64(len(recs))
	l.stats.BytesLogged += int64(len(frame))
	return id, l.writeBytesLocked(frame)
}

// appendFrame appends to dst the frame of the given kind, txid and link
// holding recs. It fails with ErrCorrupt for a record without an LSN:
// Recover would refuse the frame.
func appendFrame(dst []byte, kind uint8, txid, link uint64, recs []redo.Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, lenSize)...)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, txid)
	dst = binary.AppendUvarint(dst, link)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	var page, lsn uint64
	for _, r := range recs {
		if r.LSN == 0 {
			return dst, fmt.Errorf("%w: record for page %d has no LSN", ErrCorrupt, r.Page)
		}
		dst = append(dst, r.Kind)
		dst = binary.AppendUvarint(dst, uint64(len(r.Data)))
		dst = binary.AppendVarint(dst, int64(r.Page-page))
		dst = binary.AppendVarint(dst, int64(r.LSN-lsn))
		dst = append(dst, r.Data...)
		page, lsn = r.Page, r.LSN
	}
	n := len(dst) - start - lenSize
	if uint64(n) > math.MaxUint32 {
		return dst, fmt.Errorf("%w: a frame of %d bytes", ErrFull, n)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable)), nil
}

// frameHdr is a decoded frame's header.
type frameHdr struct {
	kind       uint8
	txid, link uint64
}

// decodeFrame decodes one whole frame, length and CRC included, appending its
// records to recs; their Data alias f. A frame whose length or CRC does
// not hold is torn (errTorn). One whose CRC holds but whose fields do not
// — a count or a length that overruns the frame, bytes left over, an
// unknown frame kind, a record with LSN 0 — fails with ErrCorrupt: this
// package stamps every record it writes, so a frame that holds LSN 0 was
// not written by it.
func decodeFrame(f []byte, recs []redo.Record) (frameHdr, []redo.Record, error) {
	var h frameHdr
	if len(f) < frameOverhead || uint64(binary.LittleEndian.Uint32(f)) != uint64(len(f)-frameOverhead) {
		return h, recs, errTorn
	}
	end := len(f) - 4
	if crc32.Checksum(f[:end], crcTable) != binary.LittleEndian.Uint32(f[end:]) {
		return h, recs, errTorn
	}
	d := redo.NewReader(f[lenSize:end])
	h.kind = d.U8()
	h.txid = d.Uvarint()
	h.link = d.Uvarint()
	count := d.Uvarint()
	if d.Err() == nil && h.kind != kindCommit && h.kind != kindChunk {
		return h, recs, fmt.Errorf("%w: frame kind %d", ErrCorrupt, h.kind)
	}
	// A record takes at least four bytes, so a count the body cannot hold
	// is refused before anything is allocated for it.
	if d.Err() == nil && count > uint64(d.Len())/4 {
		return h, recs, fmt.Errorf("%w: %d records in %d bytes", ErrCorrupt, count, d.Len())
	}
	var page, lsn uint64
	for i := uint64(0); i < count && d.Err() == nil; i++ {
		kind := d.U8()
		n := d.Uvarint()
		page += uint64(zigzag(d.Uvarint()))
		lsn += uint64(zigzag(d.Uvarint()))
		data := d.Bytes(n)
		if d.Err() == nil && lsn == 0 {
			return h, recs, fmt.Errorf("%w: record for page %d has no LSN", ErrCorrupt, page)
		}
		recs = append(recs, redo.Record{LSN: lsn, Page: page, Kind: kind, Data: data})
	}
	if err := d.Err(); err != nil {
		return h, recs, fmt.Errorf("%w: txid %d: %v", ErrCorrupt, h.txid, err)
	}
	if d.Len() != 0 {
		return h, recs, fmt.Errorf("%w: txid %d: %d bytes after the last record", ErrCorrupt, h.txid, d.Len())
	}
	return h, recs, nil
}

// zigzag undoes binary.AppendVarint's zigzag encoding of a uvarint.
func zigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// failGroup resolves a group after a device error. The log wedges either
// way — no further appends until a checkpoint resets the region — but the
// per-batch verdicts must agree with what recovery will do, and "error
// everything" does not: the staging buffer flushes whenever head crosses
// a block boundary, so a batch's frame can already be durable when a
// later write in the same group fails. Erroring such a
// batch resurrects it at recovery — the caller was told the operation
// failed, yet replay applies it. failGroup instead computes the exact
// durable frontier and acknowledges every batch whose frame lies at or
// below it; batches recovery cannot commit (their frame ends past the
// frontier, so replay's CRC scan stops at it) fail.
func (l *Log) failGroup(group []*gcBatch, err error) {
	l.wedged = true
	frontier := l.durableFrontierLocked()
	for _, b := range group {
		if b.err != nil {
			continue // ErrFull or the failing append's own error
		}
		if b.end != 0 && b.end <= frontier {
			// Frame provably durable: recovery will replay this
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
		l.bufDirty = true
		p = p[n:]
		l.head.Add(uint64(n))
	}
	return nil
}

// flushBufLocked writes the staging block if the device has not seen
// all of it. The buffer stays valid for continued appends to the block.
func (l *Log) flushBufLocked() error {
	if !l.bufOK || !l.bufDirty {
		return nil
	}
	if err := l.dev.WriteBlock(l.start+l.bufBlk, l.buf); err != nil {
		return err
	}
	l.stats.BlockWrites++
	l.bufDirty = false
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
	l.bufOK, l.bufDirty = false, false
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

// Recover scans the log frame by frame and replays redo records through
// apply, ordered by LSN (mutation order). Replay "repeats history":
// committed transactions, resolved chunk chains, AND loser chains (chunks
// never resolved by a commit) all replay — losers must be physically
// present before their logical inverses can run; the caller fetches them
// from Losers afterwards and rolls them back. Undo records are never
// passed to apply. A record's Data is bytes of its own, which apply may
// keep and modify. A torn frame (a length past the region, a CRC
// mismatch) or a txid that does not go forward ends the scan; a frame
// whose CRC holds but that does not decode fails with ErrCorrupt, and a
// header of another format with ErrFormat. Records whose LSN predates the
// last checkpoint's fence are dropped, and head is positioned for
// continued appends. Returns the number of records replayed; MaxLSN
// afterwards reports the largest LSN seen so the volume can seed its LSN
// counter past it.
func (l *Log) Recover(apply func(r redo.Record) error) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	// The header survives checkpoints and carries the id high-water mark
	// and the LSN fence. A region no checkpoint has reset yet has none.
	var hdrTx, hdrFence uint64
	if err := l.dev.ReadBlock(l.start, l.buf); err != nil {
		return 0, err
	}
	switch magic := binary.LittleEndian.Uint32(l.buf[0:]); magic {
	case logMagic:
		hdrTx = binary.LittleEndian.Uint64(l.buf[8:])
		hdrFence = binary.LittleEndian.Uint64(l.buf[16:])
	case 0:
	default:
		return 0, fmt.Errorf("%w: magic %#x, want %#x", ErrFormat, magic, logMagic)
	}

	// The scan only moves forward, so one block buffer serves it: the
	// header read above left block 0 in l.buf, and each later block is
	// read once, when the scan first reaches it.
	held := uint64(0)
	readAt := func(off uint64, p []byte) error {
		for len(p) > 0 {
			blk := off / uint64(l.bs)
			bo := int(off % uint64(l.bs))
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

	// frames[i] holds recs[frames[i].lo:frames[i].hi].
	type scanned struct {
		frameHdr
		lo, hi int
	}
	var frames []scanned
	var recs []redo.Record
	pos := uint64(logHdrSize)
	for pos+lenSize <= l.Capacity() {
		var pre [lenSize]byte
		if err := readAt(pos, pre[:]); err != nil {
			return 0, err
		}
		n := uint64(binary.LittleEndian.Uint32(pre[:]))
		if n == 0 {
			break // end marker
		}
		if pos+frameOverhead+n > l.Capacity() {
			break // torn tail
		}
		f := make([]byte, frameOverhead+n)
		copy(f, pre[:])
		if err := readAt(pos+lenSize, f[lenSize:]); err != nil {
			return 0, err
		}
		lo := len(recs)
		h, more, err := decodeFrame(f, recs)
		if errors.Is(err, errTorn) {
			break // torn tail: stop scanning
		}
		if err != nil {
			return 0, err
		}
		// Transaction ids are globally monotonic (never reset, even by
		// checkpoints), and the log is written front to back — so a frame
		// whose txid does not go forward is a leftover from an earlier log
		// pass sitting beyond the true tail. Replaying it would regress
		// pages to stale images. Stop here. (The end marker written after
		// each append also terminates the log, but a crash between a
		// frame reaching the device and the marker doing so — the marker
		// in the next block — leaves exactly this stale-suffix window.)
		if len(frames) > 0 && h.txid <= frames[len(frames)-1].txid {
			break
		}
		recs = more
		frames = append(frames, scanned{h, lo, len(recs)})
		pos += frameOverhead + n
	}

	// Resolve chunk chains named by commits: every chunk reachable
	// backward from a committed chain tail is committed.
	chunkPrev := map[uint64]uint64{} // chunk txid → previous chunk txid (0 = first)
	for _, f := range frames {
		if f.kind == kindChunk {
			chunkPrev[f.txid] = f.link
		}
	}
	resolved := map[uint64]bool{}
	for _, f := range frames {
		if f.kind == kindCommit {
			for c := f.link; c != 0 && !resolved[c]; c = chunkPrev[c] {
				resolved[c] = true
			}
		}
	}
	// The remaining chunks are losers. Group them into chains (tail = the
	// chunk no other loser chunk names as its predecessor), collecting
	// each chain's undo records for the caller to roll back.
	isLoser := func(id uint64) bool {
		_, chunk := chunkPrev[id]
		return chunk && !resolved[id]
	}
	var loserIDs []uint64
	referenced := map[uint64]bool{}
	for id, prev := range chunkPrev {
		if isLoser(id) {
			loserIDs = append(loserIDs, id)
			referenced[prev] = true
		}
	}
	slices.Sort(loserIDs)
	loserOf := map[uint64]int{} // chunk txid → index into l.losers
	l.losers = nil
	for _, tail := range loserIDs {
		if referenced[tail] {
			continue
		}
		loserOf[tail] = len(l.losers)
		for c := chunkPrev[tail]; isLoser(c); c = chunkPrev[c] {
			loserOf[c] = len(l.losers)
		}
		l.losers = append(l.losers, LoserChain{Tail: tail})
	}
	// Repeat history: every frame replays; undo records replay nowhere —
	// losers' undo records are collected for the caller, committed
	// transactions' are dead weight already paid for by the chunk flush
	// that wrote them. Replay runs in LSN order: transactions append in
	// commit order but mutate in LSN order, and per-page correctness
	// requires the latter.
	maxTx, maxLSN := uint64(0), uint64(0)
	var live []redo.Record
	for _, f := range frames {
		maxTx = max(maxTx, f.txid)
		idx, loser := loserOf[f.txid]
		for _, r := range recs[f.lo:f.hi] {
			maxLSN = max(maxLSN, r.LSN)
			if r.LSN <= hdrFence {
				continue // stale-generation leftover beyond the fence
			}
			if redo.BaseKind(r.Kind) == redo.KindUndo {
				if loser {
					l.losers[idx].Undos = append(l.losers[idx].Undos, r)
				}
				continue
			}
			r.Kind = redo.BaseKind(r.Kind)
			live = append(live, r)
		}
	}
	byLSN := func(a, b redo.Record) int { return cmp.Compare(a.LSN, b.LSN) }
	for i := range l.losers {
		slices.SortStableFunc(l.losers[i].Undos, byLSN)
	}
	slices.SortStableFunc(live, byLSN)
	replayed := 0
	for _, r := range live {
		if apply != nil {
			if err := apply(r); err != nil {
				return replayed, err
			}
		}
		replayed++
	}
	l.stats.LoserChains += int64(len(l.losers))
	l.head.Store(pos)
	l.bufOK, l.bufDirty = false, false
	l.nextTx.Store(max(maxTx+1, hdrTx))
	l.maxLSN = max(maxLSN, hdrFence)
	l.lsnFence = max(l.lsnFence, hdrFence)
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
