package core

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"repro/internal/blockdev"
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

// replayer is the state of one replay of the log: the pages it has
// materialized and what it learned for the steps after replay.
type replayer struct {
	v        *Volume
	pages    map[uint64][]byte
	pristine map[uint64][]byte
	wrote    map[uint64][]uint32 // block → the sums its logged writes left, in order
	built    map[uint64]bool     // block → its last logged write was a built page's
	allocs   []allocRec
}

// replayKinds is the redo vocabulary's replay, indexed by record kind:
// the one place a kind's replay is defined. A kind no record carries any
// more, or one the WAL keeps for itself, has no entry.
var replayKinds = [redo.KindCount]func(x *replayer, r redo.Record) error{
	redo.KindImage: func(x *replayer, r redo.Record) error {
		if len(r.Data) != x.v.raw.BlockSize() {
			return fmt.Errorf("%w: logged page image has %d bytes", ErrBadSuperblock, len(r.Data))
		}
		d, err := x.page(r.Page)
		if err == nil {
			copy(d, r.Data)
		}
		return err
	},
	redo.KindRange: func(x *replayer, r redo.Record) error {
		d, err := x.page(r.Page)
		if err != nil {
			return err
		}
		return redo.ApplyRange(d, r.Data)
	},
	redo.KindBtreeOp:  func(x *replayer, r redo.Record) error { return btree.ReplayOp(x.page, r.Page, r.Data) },
	redo.KindExtentOp: func(x *replayer, r redo.Record) error { return extent.ReplayOp(x.page, r.Page, r.Data) },
	redo.KindUndo:     endsInWAL("undo records drive the rollback of loser chains, which the WAL hands over as Losers"),
	redo.KindChunk:    endsInWAL("chunk records resolve chunk chains inside the WAL's Recover"),
	redo.KindAlloc: func(x *replayer, r redo.Record) error {
		a, err := decodeAllocRec(r)
		if err == nil {
			x.allocs = append(x.allocs, a)
		}
		return err
	},
	redo.KindWrote: (*replayer).wroteSums,
	redo.KindBuilt: (*replayer).wroteSums,
}

// endsInWAL is the entry of a kind that the WAL consumes itself and
// Recover never hands to replay; why says where it ends. One that arrives
// all the same is a log this volume did not write.
func endsInWAL(why string) func(*replayer, redo.Record) error {
	return func(_ *replayer, r redo.Record) error {
		return fmt.Errorf("%w: redo kind %d reached replay (%s)", ErrBadSuperblock, r.Kind, why)
	}
}

// replay dispatches one record through replayKinds.
func (x *replayer) replay(r redo.Record) error {
	if int(r.Kind) >= len(replayKinds) || replayKinds[r.Kind] == nil {
		return fmt.Errorf("%w: unknown redo kind %d", ErrBadSuperblock, r.Kind)
	}
	return replayKinds[r.Kind](x, r)
}

// page materializes page pno. Materialization reads bypass checksum
// verification: a stolen page's home legitimately leads the
// checkpoint-time sidecar, and a page the log modifies is rebuilt from
// its logged first-touch base image before any delta applies, so disk
// content is only a placeholder. The pristine copy lets the write-home
// loop skip pages replay merely fetched — rewriting those through the
// checksumming device would launder any rot in them into a fresh valid
// sum.
func (x *replayer) page(pno uint64) ([]byte, error) {
	if d, ok := x.pages[pno]; ok {
		return d, nil
	}
	v := x.v
	if pno >= v.raw.NumBlocks() {
		return nil, fmt.Errorf("%w: replayed page %d beyond device", ErrBadSuperblock, pno)
	}
	d := make([]byte, v.raw.BlockSize())
	if err := v.raw.ReadBlock(pno, d); err != nil {
		return nil, err
	}
	x.pages[pno] = d
	x.pristine[pno] = slices.Clone(d)
	return d, nil
}

// wroteSums notes the sums a KindWrote or KindBuilt record names.
func (x *replayer) wroteSums(r redo.Record) error {
	return redo.WroteSums(r.Page, r.Data, func(b uint64, sum uint32) {
		if x.v.sums.covers(b) {
			x.wrote[b] = append(x.wrote[b], sum)
			x.built[b] = r.Kind == redo.KindBuilt
		}
	})
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
	x := &replayer{
		v:        v,
		pages:    make(map[uint64][]byte),
		pristine: make(map[uint64][]byte),
		wrote:    make(map[uint64][]uint32),
		built:    make(map[uint64]bool),
	}
	rep := &v.recovery
	t0 := time.Now()
	n, err := v.log.Recover(func(r redo.Record) error { return timed(&rep.Replay, func() error { return x.replay(r) }) })
	if err != nil {
		return nil, err
	}
	st := v.log.Stats()
	rep.LogScan = RecoveryPhase{Count: st.RecordsScanned, Duration: time.Since(t0) - rep.Replay.Duration}
	rep.LogBytes = st.BytesScanned
	rep.Replay.Count = int64(n)
	if n == 0 {
		return x.allocs, nil
	}
	err = timed(&rep.Replay, func() error {
		for pno, d := range x.pages {
			if bytes.Equal(d, x.pristine[pno]) {
				// The home already holds the WAL-prescribed content (it was
				// flushed after the last sidecar flush), so the durable sum
				// may trail it: refresh the entry from the materialized
				// content, which is WAL-derived via the first-touch base
				// image, without rewriting the block.
				if v.sums.covers(pno) {
					v.sums.set(pno, blockdev.Sum(d))
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
		if err := v.settleDataSums(x.wrote, x.built); err != nil {
			return err
		}
		return v.raw.Sync()
	})
	return x.allocs, err
}

// settleDataSums gives the blocks the log tail wrote straight to the
// device (redo.KindWrote: object data; redo.KindBuilt: the pages of built
// trees) the sums of what they hold now: the sidecar's are the
// checkpoint's, from before those writes. A block that holds what its
// last logged write left is settled. One that still holds what it held
// before that write — its checkpoint content (zeros if nothing had
// written it) or what an earlier write of the tail left — never received
// it: the device lost or misdirected it. Such a block gets a sum its
// content fails, so reading it is an error, not stale bytes. Other
// content of a data block is learned as it is: a later write the log
// does not hold, which never committed, may have rewritten the block in
// place. A built page is never rewritten, so other content of one is a
// write corrupted on its way to the device, and fails too.
func (v *Volume) settleDataSums(wrote map[uint64][]uint32, built map[uint64]bool) error {
	buf := make([]byte, v.raw.BlockSize())
	zeros := blockdev.Sum(buf)
	for b, sums := range wrote {
		if err := v.raw.ReadBlock(b, buf); err != nil {
			return err
		}
		got := blockdev.Sum(buf)
		before, known := v.sums.get(b)
		if !known {
			before = zeros
		}
		last := len(sums) - 1
		if got != sums[last] && (built[b] || got == before || slices.Contains(sums[:last], got)) {
			got = ^got
		}
		v.sums.set(b, got)
	}
	return nil
}

// allTrees lists every btree of the volume.
func (v *Volume) allTrees() []*btree.Tree {
	trees := []*btree.Tree{v.catalog, v.reverse, v.OSD.MetaTree(), v.img.Tree()}
	trees = append(trees, v.kvTrees...)
	return append(trees, v.ft.Inner().Trees()...)
}
