package extent

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/pager"
	"repro/internal/redo"
	"repro/internal/undo"
	"repro/internal/wal"
)

// The crash-replay property: for a random sequence of mutating
// operations committed through a WAL, cutting power at every commit
// boundary (and between an operation's cache mutations and its commit)
// and replaying the surviving image must reproduce exactly the state an
// in-memory oracle holds after the committed prefix — sizes, extent
// structure, and content.
//
// The harness mirrors the volume's transactional plumbing at package
// scale: a no-steal pager with first-touch base images, deferred buddy
// frees, per-operation redo captures committed as WAL transactions
// (appended even when the operation errors, like the volume's bracket),
// deferred rebalances as system transactions, and periodic checkpoints
// so the test crosses log generations.

const (
	crBlocks    = 1 << 14
	crWALStart  = 1
	crWALBlocks = 4096
	crDataStart = crWALStart + crWALBlocks
)

type crEnv struct {
	t   *testing.T
	dev *blockdev.MemDevice
	pg  *pager.Pager
	ba  *buddy.Allocator
	log *wal.Log
	tr  *Tree
	// allocSnap is the allocator snapshot of the last checkpoint — what
	// the volume keeps in its snapshot slot. Recovery restores it and
	// replays the log tail's allocator records on top.
	allocSnap []byte
}

type walAppender struct{ log *wal.Log }

func (a walAppender) AppendSystem(recs []redo.Record) error {
	err := a.log.AppendSystem(recs)
	if errors.Is(err, wal.ErrFull) {
		return nil // wedged; the next commit's ErrFull forces a checkpoint
	}
	return err
}

func (a walAppender) Wedge() { a.log.Wedge() }

func newCrashEnv(t *testing.T) *crEnv {
	t.Helper()
	dev := blockdev.NewMem(crBlocks, blockdev.DefaultBlockSize)
	e := &crEnv{
		t:   t,
		dev: dev,
		pg:  pager.New(dev, 512, false), // no-steal
		ba:  buddy.New(crDataStart, crBlocks-crDataStart),
		log: wal.New(dev, crWALStart, crWALBlocks),
	}
	tr, err := Create(e.pg, e.ba, Config{MaxExtentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	e.tr = tr
	// Formatting flush: a clean generation boundary, after which base
	// images protect every touched page (exactly core.Create's order).
	e.checkpoint()
	e.pg.EnableBaseImages(walAppender{e.log})
	e.ba.SetDeferredFrees(true)
	return e
}

func (e *crEnv) checkpoint() {
	e.t.Helper()
	if err := e.pg.FlushDirty(); err != nil {
		e.t.Fatal(err)
	}
	snap, err := e.ba.SnapshotReleased()
	if err != nil {
		e.t.Fatal(err)
	}
	e.allocSnap = snap
	if err := e.dev.Sync(); err != nil {
		e.t.Fatal(err)
	}
	if err := e.log.Checkpoint(e.pg.CurrentLSN()); err != nil {
		e.t.Fatal(err)
	}
	if err := e.ba.ReleaseLimbo(); err != nil {
		e.t.Fatal(err)
	}
}

// commitOp is the volume bracket in miniature: stage the op's records as
// one WAL transaction (even when the operation failed — the cache
// mutations are already applied and there is no undo), then run deferred
// rebalances as their own system transactions.
func (e *crEnv) commitOp(op *pager.Op, opErr error) error {
	e.t.Helper()
	recs := op.Records()
	if len(recs) > 0 {
		wtx := e.log.Begin()
		for _, r := range recs {
			wtx.LogRecord(r)
		}
		if err := wtx.Commit(); err != nil {
			if errors.Is(err, wal.ErrFull) {
				e.checkpoint()
			} else {
				e.t.Fatalf("commit: %v", err)
			}
		}
	}
	if opErr == nil {
		for _, fn := range op.Deferred() {
			sys := e.pg.NewOp(walAppender{e.log})
			rerr := fn(sys)
			if aerr := sys.AppendSys(); rerr == nil {
				rerr = aerr
			}
			if rerr != nil {
				e.t.Fatalf("deferred rebalance: %v", rerr)
			}
		}
	}
	return opErr
}

// recoverImage restores a device snapshot into a fresh device, replays
// the committed WAL records the way core.Open does — pages from the log,
// the allocator from the checkpoint's snapshot plus the tail's allocator
// records — and opens the tree. The restored allocator must be exactly
// what the reachability walk would have built; callers check that with
// assertAllocatorIsWalk once the tree's counters are known good.
func recoverImage(t *testing.T, snap, allocSnap []byte, hdrPno uint64) (*Tree, *buddy.Allocator, error) {
	t.Helper()
	dev := blockdev.NewMem(crBlocks, blockdev.DefaultBlockSize)
	if err := dev.RestoreFrom(snap); err != nil {
		t.Fatal(err)
	}
	_, tail, err := replayInto(t, dev)
	if err != nil {
		return nil, nil, err
	}
	pg := pager.New(dev, 512, true)
	ba := restoreAllocator(t, allocSnap, tail)
	tr, err := Open(pg, ba, hdrPno, Config{MaxExtentBytes: 4096})
	return tr, ba, err
}

// restoreAllocator is core.restoreAllocator at package scale.
func restoreAllocator(t *testing.T, allocSnap []byte, tail []redo.Record) *buddy.Allocator {
	t.Helper()
	ba, err := buddy.Restore(allocSnap)
	if err != nil {
		t.Fatalf("restore allocator snapshot: %v", err)
	}
	for _, r := range tail {
		free, n, err := redo.DecodeAlloc(r.Data)
		if err == nil && free {
			err = ba.Free(r.Page, n)
		} else if err == nil {
			err = ba.AllocAt(r.Page, n)
		}
		if err != nil {
			t.Fatalf("apply allocator record (lsn %d): %v", r.LSN, err)
		}
	}
	return ba
}

// assertAllocatorIsWalk is the recovery oracle: the slow definition —
// everything the tree does not reach is free — must produce the very free
// lists the fast path restored (limbo counted free).
func assertAllocatorIsWalk(t *testing.T, label string, ba *buddy.Allocator, tr *Tree) {
	t.Helper()
	res, err := tr.Check()
	if err != nil {
		t.Fatalf("%s: check: %v", label, err)
	}
	var used [][2]uint64
	for _, p := range res.AllPages {
		used = append(used, [2]uint64{p, p + 1})
	}
	for _, ex := range res.DataExtents {
		used = append(used, [2]uint64{ex.Alloc, ex.Alloc + uint64(ex.AllocBlocks)})
	}
	want, err := buddy.FromUsed(crDataStart, crBlocks-crDataStart, used)
	if err != nil {
		t.Fatalf("%s: walk: %v", label, err)
	}
	got, err := ba.SnapshotReleased()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(got, want.Snapshot()) {
		t.Fatalf("%s: restored allocator differs from the reachability walk (restored %d free, walk %d free)",
			label, ba.FreeBlocks()+ba.LimboBlocks(), want.FreeBlocks())
	}
}

// replayInto replays dev's WAL region onto dev — repeat history, loser
// chunks included — and returns the log with its loser chains resolved
// for the caller to roll back, plus the tail's allocator records.
func replayInto(t *testing.T, dev *blockdev.MemDevice) (*wal.Log, []redo.Record, error) {
	t.Helper()
	log := wal.New(dev, crWALStart, crWALBlocks)
	bs := dev.BlockSize()
	var allocs []redo.Record
	pages := make(map[uint64][]byte)
	get := func(pno uint64) ([]byte, error) {
		if d, ok := pages[pno]; ok {
			return d, nil
		}
		d := make([]byte, bs)
		if err := dev.ReadBlock(pno, d); err != nil {
			return nil, err
		}
		pages[pno] = d
		return d, nil
	}
	_, err := log.Recover(func(r redo.Record) error {
		switch r.Kind {
		case redo.KindImage:
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
		case redo.KindExtentOp:
			return ReplayOp(get, r.Page, r.Data)
		case redo.KindAlloc:
			allocs = append(allocs, r)
			return nil
		default:
			return fmt.Errorf("unexpected redo kind %d", r.Kind)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for pno, d := range pages {
		if err := dev.WriteBlock(pno, d); err != nil {
			return nil, nil, err
		}
	}
	return log, allocs, nil
}

// verifyAgainstOracle checks structure (Check), size, and full content
// equality.
func verifyAgainstOracle(t *testing.T, label string, tr *Tree, oracle []byte) {
	t.Helper()
	verifyWithOverlap(t, label, tr, oracle, 0, 0, nil)
}

// verifyWithOverlap is verifyAgainstOracle, except that bytes in
// [wrOff, wrEnd) may hold either the oracle's value or newData's: an
// uncommitted WriteAt overwrites committed extents' data blocks in
// place (the data path logs metadata, not content — overwrite atomicity
// has never been a volume guarantee), so a cut mid-operation may
// surface the new bytes where extents were real and the old bytes where
// they were holes. Structure and size must still be exactly the
// pre-operation state.
func verifyWithOverlap(t *testing.T, label string, tr *Tree, oracle []byte, wrOff, wrEnd uint64, newData []byte) {
	t.Helper()
	if _, err := tr.Check(); err != nil {
		t.Fatalf("%s: structural check: %v", label, err)
	}
	if tr.Size() != uint64(len(oracle)) {
		t.Fatalf("%s: size %d, oracle %d", label, tr.Size(), len(oracle))
	}
	if len(oracle) == 0 {
		return
	}
	got := make([]byte, len(oracle))
	if n, err := tr.ReadAt(got, 0); n != len(oracle) {
		t.Fatalf("%s: read %d of %d: %v", label, n, len(oracle), err)
	}
	if bytes.Equal(got, oracle) {
		return
	}
	for i := range got {
		if got[i] == oracle[i] {
			continue
		}
		u := uint64(i)
		if u >= wrOff && u < wrEnd && got[i] == newData[u-wrOff] {
			continue
		}
		t.Fatalf("%s: content diverges at byte %d of %d", label, i, len(oracle))
	}
}

// TestDeferredRebalanceReclaimsDrainedLeaves: a bulk delete on a logged
// volume registers ONE deferred rebalance for the whole operation, and
// that rebalance must loop until no merge fires — otherwise the
// contiguous run of leaves the delete drained would stay allocated
// (nearly empty) forever, a space regression the unlogged per-removal
// merge path never had.
func TestDeferredRebalanceReclaimsDrainedLeaves(t *testing.T) {
	e := newCrashEnv(t)
	op1 := e.pg.NewOp(walAppender{e.log})
	if err := e.tr.WriteAtOp(op1, pattern(1<<20+3000, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.commitOp(op1, nil); err != nil {
		t.Fatal(err)
	}
	res, err := e.tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages < 3 {
		t.Fatalf("setup built only %d node pages; want a multi-node tree", res.Pages)
	}
	// Drain everything but one extent; the deferred rebalance runs
	// inside commitOp, after the delete's transaction committed.
	op2 := e.pg.NewOp(walAppender{e.log})
	if err := e.tr.DeleteRangeOp(op2, 4096, e.tr.Size()-4096); err != nil {
		t.Fatal(err)
	}
	if err := e.commitOp(op2, nil); err != nil {
		t.Fatal(err)
	}
	res, err = e.tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages > 2 {
		t.Fatalf("drained tree still holds %d node pages; deferred rebalance did not reclaim the run", res.Pages)
	}
	verifyAgainstOracle(t, "after bulk delete", e.tr, pattern(1<<20+3000, 1)[:4096])
}

// TestCrashReplayPropertyAgainstOracle runs random operation sequences,
// snapshotting the device at every WAL commit boundary AND between each
// operation's cache mutations and its commit. Every boundary snapshot
// must recover to the oracle's state after the committed prefix; every
// mid-operation snapshot must recover to the state *before* the
// operation (its records are still unstaged, and the system-transaction
// splits that did reach the log are sum-preserving by design, so they
// must not change observable content).
func TestCrashReplayPropertyAgainstOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0xE16))
			e := newCrashEnv(t)
			hdr := e.tr.HeaderPage()
			var oracle []byte

			const ops = 45
			for i := 0; i < ops; i++ {
				kind := rng.IntN(5)
				if i == 0 {
					kind = 0 // force the huge first write (see below)
				}
				op := e.pg.NewOp(walAppender{e.log})
				var err error
				next := append([]byte(nil), oracle...)
				// In-place overwrite window for the mid-op check (WriteAt
				// writes committed extents' data blocks directly).
				var wrOff, wrEnd uint64
				var wrData []byte
				switch kind {
				case 0: // overwrite / extend write
					off := uint64(rng.IntN(len(oracle) + 2000))
					n := rng.IntN(5000) + 1
					if i == 0 {
						// One huge write: >254 extents land in a single
						// operation, so leaf splits run with the leaf full
						// of this op's own uncommitted cells — the mid-op
						// cut below then replays an always-redone split
						// against a committed leaf with fewer cells than
						// the recorded split index (the clamp + recount
						// path).
						off, n = 0, 1<<20+3000
					}
					data := pattern(n, byte(i))
					err = e.tr.WriteAtOp(op, data, off)
					if int(off)+len(data) > len(next) {
						grown := make([]byte, int(off)+len(data))
						copy(grown, next)
						next = grown
					}
					copy(next[off:], data)
					wrOff, wrEnd, wrData = off, off+uint64(len(data)), data
				case 1: // middle insert
					off := uint64(0)
					if len(oracle) > 0 {
						off = uint64(rng.IntN(len(oracle) + 1))
					}
					data := pattern(rng.IntN(3000)+1, byte(i)+7)
					err = e.tr.InsertAtOp(op, off, data)
					next = append(next[:off], append(append([]byte{}, data...), next[off:]...)...)
				case 2: // delete range
					if len(oracle) == 0 {
						continue
					}
					off := uint64(rng.IntN(len(oracle)))
					n := uint64(rng.IntN(4000) + 1)
					err = e.tr.DeleteRangeOp(op, off, n)
					end := off + n
					if end > uint64(len(next)) {
						end = uint64(len(next))
					}
					next = append(next[:off], next[end:]...)
				case 3: // truncate (shrink or grow-with-hole)
					target := uint64(rng.IntN(len(oracle) + 3000))
					err = e.tr.TruncateOp(op, target)
					if target <= uint64(len(next)) {
						next = next[:target]
					} else {
						next = append(next, make([]byte, target-uint64(len(next)))...)
					}
				case 4: // append
					data := pattern(rng.IntN(6000)+1, byte(i)+13)
					err = e.tr.WriteAtOp(op, data, e.tr.Size())
					next = append(next, data...)
				}

				// Mid-operation cut: mutations are in cache (and any splits
				// in the log as system transactions), the commit is not.
				midSnap := e.dev.Snapshot()
				trMid, baMid, merr := recoverImage(t, midSnap, e.allocSnap, hdr)
				if merr != nil {
					t.Fatalf("op %d: mid-op recovery: %v", i, merr)
				}
				// A mid-op cut is an unclean open with an uncommitted
				// operation: mirror the volume and recount before
				// checking — replayed splits may carry the dropped op's
				// cells in their absolute sums (content is exact either
				// way; that is what the oracle comparison proves).
				if merr := trMid.Recount(); merr != nil {
					t.Fatalf("op %d: mid-op recount: %v", i, merr)
				}
				verifyWithOverlap(t, fmt.Sprintf("op %d mid-op cut", i), trMid, oracle, wrOff, wrEnd, wrData)
				assertAllocatorIsWalk(t, fmt.Sprintf("op %d mid-op cut", i), baMid, trMid)

				if cerr := e.commitOp(op, err); cerr != nil {
					t.Fatalf("op %d kind %d: %v", i, kind, cerr)
				}
				oracle = next

				// Commit-boundary cut.
				snap := e.dev.Snapshot()
				tr2, ba2, rerr := recoverImage(t, snap, e.allocSnap, hdr)
				if rerr != nil {
					t.Fatalf("op %d: boundary recovery: %v", i, rerr)
				}
				verifyAgainstOracle(t, fmt.Sprintf("op %d boundary cut", i), tr2, oracle)
				assertAllocatorIsWalk(t, fmt.Sprintf("op %d boundary cut", i), ba2, tr2)

				// Cross log generations now and then.
				if rng.IntN(10) == 0 || e.log.Used() > e.log.Capacity()*2/3 {
					e.checkpoint()
				}
			}
			verifyAgainstOracle(t, "final live tree", e.tr, oracle)
		})
	}
}

// --- abort injection (PR 7: undo records, CLRs, recovery rollback) ---

// newAbortEnv is newCrashEnv with the ARIES pieces enabled: chunk
// appends through the log (steal plumbing) and undo capture.
func newAbortEnv(t *testing.T) *crEnv {
	e := newCrashEnv(t)
	e.pg.EnableSteal(e.log)
	e.pg.EnableUndo()
	return e
}

// commitChain mirrors core.commitOpChain at package scale: flush the
// op's dependencies as chunks, seal, and commit the pending records
// naming the op's chunk chain. Deferred rebalances run only on the
// committed path — a rollback drops them (benign underfull nodes; the
// next rebalance re-checks).
func (e *crEnv) commitChain(op *pager.Op, chain uint64, runDeferred bool) {
	e.t.Helper()
	e.pg.FlushOpDeps(op)
	recs, last := e.pg.SealOp(op)
	if chain == 0 {
		chain = last
	}
	if len(recs) == 0 && chain == 0 {
		e.pg.FinishOp(op, false)
	} else {
		wtx := e.log.Begin()
		for _, r := range recs {
			wtx.LogRecord(r)
		}
		wtx.SetChain(chain)
		if err := wtx.Commit(); err != nil {
			e.pg.FinishOp(op, false)
			e.t.Fatalf("commit: %v", err)
		}
		e.pg.FinishOp(op, true)
	}
	deferred := op.Deferred()
	if runDeferred {
		for _, fn := range deferred {
			sys := e.pg.NewOp(walAppender{e.log})
			rerr := fn(sys)
			if aerr := sys.AppendSys(); rerr == nil {
				rerr = aerr
			}
			if rerr != nil {
				e.t.Fatalf("deferred rebalance: %v", rerr)
			}
		}
	}
}

// rollback mirrors core.abortOp: execute the op's captured inverses
// newest-first in CLR mode, then commit the original records plus the
// compensations as one transaction — a net no-op under replay, with the
// op's chunk chain (if any) resolved by the commit.
func (e *crEnv) rollback(op *pager.Op) {
	e.t.Helper()
	bodies := op.UndoBodies()
	op.BeginCLR()
	for _, b := range bodies {
		u, err := undo.Decode(b)
		if err != nil {
			e.t.Fatalf("decode undo: %v", err)
		}
		if err := e.tr.ApplyUndo(op, u); err != nil {
			e.t.Fatalf("apply undo: %v", err)
		}
	}
	e.commitChain(op, 0, false)
}

// recoverUndoImage is recoverImage plus ARIES undo: repeat history, then
// roll every loser chain back through the live tree and commit the
// compensations naming each chain's tail. stopAfter >= 0 cuts the power
// again after that many inverses: the function returns without
// committing anything — exactly the state a crash mid-undo leaves,
// because CLR-mode operations are never chunk-flushed. Returns the
// opened tree, its device (for re-cut snapshots), the loser chains
// Recover found, and the number of inverses applied.
func recoverUndoImage(t *testing.T, snap, allocSnap []byte, hdrPno uint64, stopAfter int) (*Tree, *blockdev.MemDevice, []wal.LoserChain, int) {
	t.Helper()
	dev := blockdev.NewMem(crBlocks, blockdev.DefaultBlockSize)
	if err := dev.RestoreFrom(snap); err != nil {
		t.Fatal(err)
	}
	log, tail, err := replayInto(t, dev)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	pg := pager.New(dev, 512, true)
	pg.EnableSteal(log)
	pg.EnableUndo()
	// Seed the LSN counter past everything replayed, exactly core.Open's
	// order — the undo's compensations must sort after history.
	pg.SeedLSN(log.MaxLSN())
	losers := log.Losers()
	if len(losers) == 0 {
		// Committed history only (runtime rollbacks included: their
		// compensations committed with them): the allocator is the
		// snapshot plus the tail, and must equal the walk.
		ba := restoreAllocator(t, allocSnap, tail)
		tr, err := Open(pg, ba, hdrPno, Config{MaxExtentBytes: 4096})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		assertAllocatorIsWalk(t, "recovered image", ba, tr)
		return tr, dev, losers, 0
	}
	ba := buddy.New(crDataStart, crBlocks-crDataStart)
	tr, err := Open(pg, ba, hdrPno, Config{MaxExtentBytes: 4096})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Unclean open with replayed loser records that allocated: recount,
	// then rebuild the allocator from reachability before mutating through
	// the live APIs — the undo's deletes free real blocks, and its logical
	// inverses do not return the allocator to its old shape (core.Open's
	// order for a loser chain that carries allocator records).
	if err := tr.Recount(); err != nil {
		t.Fatalf("recount: %v", err)
	}
	res, err := tr.Check()
	if err != nil {
		t.Fatalf("pre-undo check: %v", err)
	}
	var used [][2]uint64
	for _, p := range res.AllPages {
		used = append(used, [2]uint64{p, p + 1})
	}
	for _, ex := range res.DataExtents {
		if ex.AllocBlocks > 0 {
			used = append(used, [2]uint64{ex.Alloc, ex.Alloc + uint64(ex.AllocBlocks)})
		}
	}
	nb, err := buddy.FromUsed(crDataStart, crBlocks-crDataStart, used)
	if err != nil {
		t.Fatalf("rebuild allocator: %v", err)
	}
	if err := ba.ReplaceWith(nb); err != nil {
		t.Fatalf("replace allocator: %v", err)
	}
	type step struct {
		lsn   uint64
		chain int
		body  []byte
	}
	var steps []step
	ops := make([]*pager.Op, len(losers))
	for i := range losers {
		ops[i] = pg.NewOp(walAppender{log})
		ops[i].BeginCLR()
		for _, r := range losers[i].Undos {
			if len(r.Data) < 8 {
				continue
			}
			steps = append(steps, step{r.LSN, i, r.Data[8:]})
		}
	}
	sort.Slice(steps, func(a, b int) bool { return steps[a].lsn > steps[b].lsn })
	applied := 0
	for _, st := range steps {
		if stopAfter >= 0 && applied >= stopAfter {
			return tr, dev, losers, applied // power cut mid-undo
		}
		u, err := undo.Decode(st.body)
		if err != nil {
			t.Fatalf("decode undo: %v", err)
		}
		if err := tr.ApplyUndo(ops[st.chain], u); err != nil {
			t.Fatalf("recovery undo: %v", err)
		}
		applied++
	}
	for i := range losers {
		pg.FlushOpDeps(ops[i])
		recs, _ := pg.SealOp(ops[i])
		wtx := log.Begin()
		for _, r := range recs {
			wtx.LogRecord(r)
		}
		wtx.SetChain(losers[i].Tail)
		if err := wtx.Commit(); err != nil {
			t.Fatalf("undo commit: %v", err)
		}
		pg.FinishOp(ops[i], true)
		ops[i].Deferred() // recovery undo drops deferred rebalances
	}
	return tr, dev, losers, applied
}

// TestCrashReplayAbortInjection extends the crash-replay property with
// aborting brackets. Three events interleave with committed operations:
//
//   - runtime aborts: an operation mutates, then rolls back through its
//     captured inverses — the live tree and every subsequent recovery
//     must show the pre-operation oracle state;
//   - loser crashes: an uncommitted operation's records reach the log
//     via a committing neighbour's dependency flush, then power cuts —
//     recovery must repeat history, undo the loser, and land exactly on
//     the committed oracle (the loser vanishes entirely);
//   - mid-undo power cuts: recovery's rollback is interrupted before its
//     compensations commit — since CLR-mode ops are never chunk-flushed,
//     the log still holds the unresolved chain and a second recovery
//     re-runs the undo from scratch to the identical oracle state.
func TestCrashReplayAbortInjection(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0xAB07))
			e := newAbortEnv(t)
			hdr := e.tr.HeaderPage()

			// Committed base: a multi-extent tree with content to mutate.
			base := pattern(1<<17+2345, 0xA5)
			op0 := e.pg.NewOp(walAppender{e.log})
			if err := e.tr.WriteAtOp(op0, base, 0); err != nil {
				t.Fatal(err)
			}
			e.commitChain(op0, 0, true)
			oracle := append([]byte(nil), base...)

			mutate := func(op *pager.Op, next []byte, i int) []byte {
				switch rng.IntN(4) {
				case 0: // in-place + growing overwrite
					off := uint64(rng.IntN(len(next)))
					data := pattern(rng.IntN(4000)+1, byte(i))
					if err := e.tr.WriteAtOp(op, data, off); err != nil {
						t.Fatal(err)
					}
					if int(off)+len(data) > len(next) {
						grown := make([]byte, int(off)+len(data))
						copy(grown, next)
						next = grown
					}
					copy(next[off:], data)
				case 1: // middle insert
					off := uint64(rng.IntN(len(next) + 1))
					data := pattern(rng.IntN(3000)+1, byte(i)+7)
					if err := e.tr.InsertAtOp(op, off, data); err != nil {
						t.Fatal(err)
					}
					next = append(next[:off], append(append([]byte{}, data...), next[off:]...)...)
				case 2: // delete range
					off := uint64(rng.IntN(len(next)))
					n := uint64(rng.IntN(3000) + 1)
					if err := e.tr.DeleteRangeOp(op, off, n); err != nil {
						t.Fatal(err)
					}
					end := off + n
					if end > uint64(len(next)) {
						end = uint64(len(next))
					}
					next = append(next[:off], next[end:]...)
				default: // append
					data := pattern(rng.IntN(4000)+1, byte(i)+13)
					if err := e.tr.WriteAtOp(op, data, e.tr.Size()); err != nil {
						t.Fatal(err)
					}
					next = append(next, data...)
				}
				return next
			}

			const rounds = 16
			for i := 0; i < rounds; i++ {
				switch rng.IntN(3) {
				case 0: // committed operation: the oracle advances
					op := e.pg.NewOp(walAppender{e.log})
					next := append([]byte(nil), oracle...)
					for k := rng.IntN(2) + 1; k > 0; k-- {
						next = mutate(op, next, i)
					}
					e.commitChain(op, 0, true)
					oracle = next

				case 1: // runtime abort: the oracle must not move
					op := e.pg.NewOp(walAppender{e.log})
					scratch := append([]byte(nil), oracle...)
					for k := rng.IntN(3) + 1; k > 0; k-- {
						scratch = mutate(op, scratch, i)
					}
					e.rollback(op)
					verifyAgainstOracle(t, fmt.Sprintf("round %d live tree after abort", i), e.tr, oracle)
					tr2, _, losers, _ := recoverUndoImage(t, e.dev.Snapshot(), e.allocSnap, hdr, -1)
					if len(losers) != 0 {
						t.Fatalf("round %d: %d loser chains after a committed rollback", i, len(losers))
					}
					verifyAgainstOracle(t, fmt.Sprintf("round %d recovery after abort", i), tr2, oracle)

				default: // loser crash (+ mid-undo re-cut)
					// L appends but never commits; B appends after it and
					// commits, which chunk-flushes L's records (B's leaf and
					// header edits depend on L's). Power then cuts: L is a
					// loser whose records are in the log without a commit.
					L := e.pg.NewOp(walAppender{e.log})
					dataL := pattern(rng.IntN(4000)+200, byte(i)+31)
					if err := e.tr.WriteAtOp(L, dataL, e.tr.Size()); err != nil {
						t.Fatal(err)
					}
					B := e.pg.NewOp(walAppender{e.log})
					dataB := pattern(rng.IntN(2000)+100, byte(i)+47)
					if err := e.tr.WriteAtOp(B, dataB, e.tr.Size()); err != nil {
						t.Fatal(err)
					}
					e.commitChain(B, 0, true)
					// Undoing L deletes its appended range, shifting B's
					// bytes down to the old tail: committed state is oracle
					// plus B's append only.
					oracle = append(oracle, dataB...)
					snap := e.dev.Snapshot()

					// Full recovery: repeat history, undo the loser, commit.
					tr2, dev2, losers, nsteps := recoverUndoImage(t, snap, e.allocSnap, hdr, -1)
					if len(losers) == 0 {
						t.Fatalf("round %d: expected a loser chain (dependency flush did not fire)", i)
					}
					verifyAgainstOracle(t, fmt.Sprintf("round %d loser recovery", i), tr2, oracle)

					// The chain is resolved: a second crash after the undo
					// commit finds no losers and the same state.
					tr3, _, losers3, _ := recoverUndoImage(t, dev2.Snapshot(), e.allocSnap, hdr, -1)
					if len(losers3) != 0 {
						t.Fatalf("round %d: %d loser chains survived the undo commit", i, len(losers3))
					}
					verifyAgainstOracle(t, fmt.Sprintf("round %d post-undo recovery", i), tr3, oracle)

					// Mid-undo power cut: interrupt the rollback before its
					// compensations commit, cut again, recover from scratch.
					if nsteps > 0 {
						_, devP, _, _ := recoverUndoImage(t, snap, e.allocSnap, hdr, rng.IntN(nsteps))
						trF, _, losersF, _ := recoverUndoImage(t, devP.Snapshot(), e.allocSnap, hdr, -1)
						if len(losersF) == 0 {
							t.Fatalf("round %d: mid-undo cut resolved the chain without a commit", i)
						}
						verifyAgainstOracle(t, fmt.Sprintf("round %d mid-undo re-recovery", i), trF, oracle)
					}

					// The live volume resolves L the runtime way so the
					// sequence continues from the committed state.
					e.rollback(L)
					verifyAgainstOracle(t, fmt.Sprintf("round %d live tree after loser rollback", i), e.tr, oracle)
				}

				if e.log.Used() > e.log.Capacity()*2/3 {
					e.checkpoint()
				}
			}
			verifyAgainstOracle(t, "final live tree", e.tr, oracle)
		})
	}
}
