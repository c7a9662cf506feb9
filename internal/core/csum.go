package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"repro/internal/blockdev"
)

// End-to-end page checksums.
//
// Every block of the data region carries a CRC32C, kept in memory while
// the volume is open and persisted to a sidecar region (between the
// allocator snapshot and the data region) at every checkpoint. Reads of
// data-region blocks — pager fills and the extent layer's direct data
// I/O both go through the csumDevice wrapper — verify the stored sum and
// surface a mismatch as a typed ErrCorruptPage instead of silently
// decoding garbage.
//
// Crash consistency: the sidecar is written inside the checkpoint, after
// FlushDirty and before the device sync that the log reset depends on,
// so the durable sidecar always describes the last durable checkpoint's
// home pages. Every home write after that point (steal eviction, a
// checkpoint that failed part-way) is covered by durable WAL records —
// WAL-before-data — and recovery's replay rebuilds exactly those pages
// from their logged first-touch base images, recomputing their sums as
// it writes them home. Pages absent from the log were last written at or
// before the checkpoint, so their sidecar sums are current. The sidecar
// itself is not checksummed: corruption there misreports a good page as
// bad — fail-stop, never silent wrong data.

// crcTable is the Castagnoli table shared with the WAL's record CRCs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt matches any detected media corruption via errors.Is.
var ErrCorrupt = errors.New("core: corrupt page")

// ErrCorruptPage reports a block whose content failed its CRC on read.
type ErrCorruptPage struct{ Page uint64 }

// Error implements error.
func (e *ErrCorruptPage) Error() string {
	return fmt.Sprintf("core: corrupt page %d: checksum mismatch", e.Page)
}

// Is makes errors.Is(err, ErrCorrupt) match.
func (e *ErrCorruptPage) Is(target error) bool { return target == ErrCorrupt }

// pageSums is the in-memory checksum table for the data region. Entries
// are atomics: writers touch disjoint blocks (the pager's busy protocol
// and per-object locking serialize same-block I/O) but readers scrape
// concurrently. An entry is either unknown (0) — the block has not been
// written or read through the wrapper yet — or sumKnown|crc.
type pageSums struct {
	start  uint64 // first data-region block
	blocks uint64
	perBlk int // entries per sidecar block
	v      []uint64
	// dirty marks sidecar blocks whose entries changed since the last
	// flush, so checkpoints rewrite only what moved.
	dirty []atomic.Bool
}

const sumKnown = uint64(1) << 32

// sumEntrySize is the sidecar bytes per data block (CRC + known flag).
const sumEntrySize = 8

func newPageSums(start, blocks uint64, blockSize int) *pageSums {
	perBlk := blockSize / sumEntrySize
	nblk := (blocks + uint64(perBlk) - 1) / uint64(perBlk)
	s := &pageSums{
		start:  start,
		blocks: blocks,
		perBlk: perBlk,
		v:      make([]uint64, blocks),
		dirty:  make([]atomic.Bool, nblk),
	}
	// A fresh table must overwrite whatever stale bytes the sidecar
	// region holds on its first flush.
	for i := range s.dirty {
		s.dirty[i].Store(true)
	}
	return s
}

// covers reports whether block no lies in the data region.
func (s *pageSums) covers(no uint64) bool {
	return no >= s.start && no < s.start+s.blocks
}

// set records the sum of a freshly written block.
func (s *pageSums) set(no uint64, sum uint32) {
	i := no - s.start
	atomic.StoreUint64(&s.v[i], sumKnown|uint64(sum))
	s.dirty[i/uint64(s.perBlk)].Store(true)
}

// forget drops the recorded sum of a block whose content changed outside
// the wrapper's sight (recovery: object bytes written after the checkpoint
// the loaded sidecar describes). The next read learns the new sum.
func (s *pageSums) forget(no uint64) {
	i := no - s.start
	atomic.StoreUint64(&s.v[i], 0)
	s.dirty[i/uint64(s.perBlk)].Store(true)
}

// get returns the recorded sum and whether one is known.
func (s *pageSums) get(no uint64) (uint32, bool) {
	e := atomic.LoadUint64(&s.v[no-s.start])
	return uint32(e), e&sumKnown != 0
}

// learn records the sum of a block first seen by a read (a block never
// written through the wrapper in this volume's lifetime, e.g. right
// after formatting). Later reads then verify against first-read content.
func (s *pageSums) learn(no uint64, sum uint32) {
	i := no - s.start
	if atomic.CompareAndSwapUint64(&s.v[i], 0, sumKnown|uint64(sum)) {
		s.dirty[i/uint64(s.perBlk)].Store(true)
	}
}

// csumDevice wraps the volume's device with checksum maintenance for the
// data region: writes record the block's CRC32C, reads verify it. Blocks
// outside the data region (superblock, WAL, snapshot, sidecar) pass
// through — they carry their own integrity checks.
type csumDevice struct {
	inner   blockdev.Device
	sums    *pageSums
	corrupt atomic.Int64 // reads failed verification
}

func (d *csumDevice) ReadBlock(n uint64, p []byte) error {
	if err := d.inner.ReadBlock(n, p); err != nil {
		return err
	}
	if d.sums.covers(n) {
		got := crc32.Checksum(p, crcTable)
		if want, ok := d.sums.get(n); ok {
			if got != want {
				d.corrupt.Add(1)
				return &ErrCorruptPage{Page: n}
			}
		} else {
			d.sums.learn(n, got)
		}
	}
	return nil
}

func (d *csumDevice) WriteBlock(n uint64, p []byte) error {
	var sum uint32
	if d.sums.covers(n) {
		sum = crc32.Checksum(p, crcTable)
	}
	if err := d.inner.WriteBlock(n, p); err != nil {
		// The block may now hold anything (torn write); the old sum
		// stays, so the next read fail-stops rather than trusting it.
		return err
	}
	if d.sums.covers(n) {
		d.sums.set(n, sum)
	}
	return nil
}

func (d *csumDevice) BlockSize() int    { return d.inner.BlockSize() }
func (d *csumDevice) NumBlocks() uint64 { return d.inner.NumBlocks() }
func (d *csumDevice) Sync() error       { return d.inner.Sync() }
func (d *csumDevice) Close() error      { return d.inner.Close() }

// CorruptReads reports how many reads failed checksum verification since
// the volume opened.
func (v *Volume) CorruptReads() int64 { return v.cdev.corrupt.Load() }

// flushPageSums writes the dirty portion of the checksum sidecar. Called
// under the checkpoint fence, after FlushDirty and before the device
// sync, so the durable sidecar always matches the last durable
// checkpoint (see the package comment above).
func (v *Volume) flushPageSums() error {
	s := v.sums
	bs := v.raw.BlockSize()
	buf := make([]byte, bs)
	for blk := range s.dirty {
		if !s.dirty[blk].Swap(false) {
			continue
		}
		for i := range buf {
			buf[i] = 0
		}
		base := uint64(blk) * uint64(s.perBlk)
		for i := 0; i < s.perBlk && base+uint64(i) < s.blocks; i++ {
			binary.LittleEndian.PutUint64(buf[i*sumEntrySize:], atomic.LoadUint64(&s.v[base+uint64(i)]))
		}
		if err := v.raw.WriteBlock(v.csumStart+uint64(blk), buf); err != nil {
			// Unflushed entries stay dirty for the next attempt.
			s.dirty[blk].Store(true)
			return err
		}
	}
	return nil
}

// loadPageSums reads the sidecar into the in-memory table (transactional
// volumes and clean non-transactional ones; see Open).
func (v *Volume) loadPageSums() error {
	s := v.sums
	bs := v.raw.BlockSize()
	buf := make([]byte, bs)
	for blk := uint64(0); blk*uint64(s.perBlk) < s.blocks; blk++ {
		if err := v.raw.ReadBlock(v.csumStart+blk, buf); err != nil {
			return err
		}
		base := blk * uint64(s.perBlk)
		for i := 0; i < s.perBlk && base+uint64(i) < s.blocks; i++ {
			e := binary.LittleEndian.Uint64(buf[i*sumEntrySize:])
			if e&^(sumKnown|0xFFFFFFFF) != 0 {
				// Garbage entry (corrupt sidecar): treat as unknown —
				// the page re-learns on first read, never silently
				// validates wrong data as right.
				e = 0
			}
			atomic.StoreUint64(&s.v[base+uint64(i)], e)
		}
	}
	for i := range s.dirty {
		s.dirty[i].Store(false)
	}
	return nil
}

// recomputePageSums rebuilds the table from device content — the unclean
// non-transactional open, where no log exists to vouch for the sidecar.
// Detection restarts from the surviving bytes.
func (v *Volume) recomputePageSums() error {
	s := v.sums
	buf := make([]byte, v.raw.BlockSize())
	for no := s.start; no < s.start+s.blocks; no++ {
		if err := v.raw.ReadBlock(no, buf); err != nil {
			return err
		}
		s.set(no, crc32.Checksum(buf, crcTable))
	}
	return nil
}
