package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/btree"
	"repro/internal/extent"
	"repro/internal/redo"
)

// RecoveryPhase is one phase of Open: how much it handled and how long
// it took.
type RecoveryPhase struct {
	Count    int64
	Duration time.Duration
}

// RecoveryReport says what Open did to bring the volume up, phase by
// phase. Every phase costs what the log tail costs — loser chains
// included, whatever they allocated or freed. The one fallback is named
// by AllocWalk: a device that offered no snapshot slot to restore.
type RecoveryReport struct {
	// Clean: the superblock recorded a clean shutdown.
	Clean bool
	// SidecarLoad: checksum sidecar blocks read.
	SidecarLoad RecoveryPhase
	// LogScan: records of every kind read from the log region, LogBytes
	// their size — the tail.
	LogScan  RecoveryPhase
	LogBytes int64
	// Replay: redo records re-executed; PagesHome the pages that differed
	// from their home copy and were written back.
	Replay    RecoveryPhase
	PagesHome int64
	// Allocator: allocator records of the tail applied on top of the
	// snapshot slot stamped AllocSlotLSN. If AllocWalk is non-empty the
	// allocator was instead rebuilt by the reachability walk, for that
	// reason, and Count is the number of owned runs the walk found.
	Allocator    RecoveryPhase
	AllocSlotLSN uint64
	AllocWalk    string
	// Undo: loser chains rolled back, on the allocator Allocator restored.
	Undo RecoveryPhase
	// Checkpoint: the checkpoint that ends recovery.
	Checkpoint RecoveryPhase
	// Total is the wall time of Open.
	Total time.Duration
}

// String renders the report on one line, for boot logs and fsck.
func (r RecoveryReport) String() string {
	alloc := fmt.Sprintf("slot lsn %d + %d records", r.AllocSlotLSN, r.Allocator.Count)
	if r.AllocWalk != "" {
		alloc = fmt.Sprintf("rebuilt by walk (%s), %d runs", r.AllocWalk, r.Allocator.Count)
	}
	ph := func(p RecoveryPhase) string {
		return fmt.Sprintf("%d in %s", p.Count, p.Duration.Round(time.Microsecond))
	}
	return fmt.Sprintf("clean=%v sidecar[%s] scan[%s, %d B] replay[%s, %d pages home] allocator[%s in %s] undo[%s] checkpoint[%s] total %s",
		r.Clean, ph(r.SidecarLoad), ph(r.LogScan), r.LogBytes, ph(r.Replay), r.PagesHome,
		alloc, r.Allocator.Duration.Round(time.Microsecond),
		ph(r.Undo), ph(r.Checkpoint), r.Total.Round(time.Microsecond))
}

// Recovery returns the report of the Open that produced this volume (the
// zero report for a volume that was just created).
func (v *Volume) Recovery() RecoveryReport { return v.recovery }

// timed runs fn and adds its duration to p.
func timed(p *RecoveryPhase, fn func() error) error {
	t0 := time.Now()
	err := fn()
	p.Duration += time.Since(t0)
	return err
}

// replayLog applies the redo records of the log: committed transactions,
// system transactions and loser chunks alike ("repeat history"). Records
// arrive in LSN order; pages are materialized once from their home
// locations into a recovery map, mutated in place (images and ranges
// generically, btree and extent ops by re-execution), and written home at
// the end. Ops that span pages (splits, merges) fetch their other pages
// through the same map, so cross-page modifications replay against
// exactly the state earlier records built. Allocator records touch no
// page: they are returned, in LSN order, for replayAllocator.
func (v *Volume) replayLog() ([]allocRec, error) {
	bs := v.raw.BlockSize()
	pages := make(map[uint64][]byte)
	pristine := make(map[uint64][]byte)
	var allocs []allocRec
	rep := &v.recovery
	// Materialization reads bypass checksum verification: a stolen page's
	// home legitimately leads the checkpoint-time sidecar, and a page the
	// log modifies is rebuilt from its logged first-touch base image
	// before any delta applies, so disk content is only a placeholder.
	// The pristine copy lets the write-home loop skip pages replay merely
	// fetched — rewriting those through the checksumming device would
	// launder any rot in them into a fresh valid sum.
	get := func(pno uint64) ([]byte, error) {
		if d, ok := pages[pno]; ok {
			return d, nil
		}
		if pno >= v.raw.NumBlocks() {
			return nil, fmt.Errorf("%w: replayed page %d beyond device", ErrBadSuperblock, pno)
		}
		d := make([]byte, bs)
		if err := v.raw.ReadBlock(pno, d); err != nil {
			return nil, err
		}
		pages[pno] = d
		p := make([]byte, bs)
		copy(p, d)
		pristine[pno] = p
		return d, nil
	}
	apply := func(r redo.Record) error {
		switch r.Kind {
		case redo.KindImage:
			if len(r.Data) != bs {
				return fmt.Errorf("%w: logged page image has %d bytes", ErrBadSuperblock, len(r.Data))
			}
			d, err := get(r.Page)
			if err != nil {
				return err
			}
			copy(d, r.Data)
			return nil
		case redo.KindRange:
			d, err := get(r.Page)
			if err != nil {
				return err
			}
			return redo.ApplyRange(d, r.Data)
		case redo.KindBtreeOp:
			return btree.ReplayOp(get, r.Page, r.Data)
		case redo.KindExtentOp:
			// The operation wrote the bytes of the run this cell names
			// straight to the device, after the checkpoint whose sums the
			// sidecar holds: those sums describe what the blocks held
			// before. Forget them; the first read learns the new ones.
			if alloc, blocks, ok := extent.DataRun(r.Data); ok {
				for b := alloc; b < alloc+uint64(blocks); b++ {
					if v.sums.covers(b) {
						v.sums.forget(b)
					}
				}
			}
			return extent.ReplayOp(get, r.Page, r.Data)
		case redo.KindAlloc:
			a, err := decodeAllocRec(r)
			if err != nil {
				return err
			}
			allocs = append(allocs, a)
			return nil
		default:
			return fmt.Errorf("%w: unknown redo kind %d", ErrBadSuperblock, r.Kind)
		}
	}
	t0 := time.Now()
	//hfadvet:replay-exempt KindUndo KindChunk — both terminate inside the WAL: undo records drive rollback through chain resolution and chunk records reassemble oversized payloads before Recover ever surfaces a logical record here
	n, err := v.log.Recover(func(r redo.Record) error { return timed(&rep.Replay, func() error { return apply(r) }) })
	if err != nil {
		return nil, err
	}
	st := v.log.Stats()
	rep.LogScan = RecoveryPhase{Count: st.RecordsScanned, Duration: time.Since(t0) - rep.Replay.Duration}
	rep.LogBytes = st.BytesScanned
	rep.Replay.Count = int64(n)
	if n == 0 {
		return allocs, nil
	}
	err = timed(&rep.Replay, func() error {
		for pno, d := range pages {
			if bytes.Equal(d, pristine[pno]) {
				// The home already holds the WAL-prescribed content (it was
				// flushed after the last sidecar flush), so the durable sum
				// may trail it: refresh the entry from the materialized
				// content, which is WAL-derived via the first-touch base
				// image, without rewriting the block.
				if v.sums.covers(pno) {
					v.sums.set(pno, crc32.Checksum(d, crcTable))
				}
				continue
			}
			// Through the checksumming device: replayed pages get their sums
			// recomputed as they go home.
			if err := v.dev.WriteBlock(pno, d); err != nil {
				return err
			}
			rep.PagesHome++
		}
		return v.raw.Sync()
	})
	return allocs, err
}

// allTrees lists every btree of the volume.
func (v *Volume) allTrees() []*btree.Tree {
	trees := []*btree.Tree{v.catalog, v.reverse, v.OSD.MetaTree(), v.img.Tree()}
	trees = append(trees, v.kvTrees...)
	return append(trees, v.ft.Inner().Trees()...)
}
