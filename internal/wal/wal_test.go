package wal

import (
	"bytes"
	"errors"
	"fmt"
	"repro/internal/redo"
	"sync"
	"testing"

	"repro/internal/blockdev"
)

const bs = 512

func newLog(t *testing.T, blocks uint64) (*Log, *blockdev.MemDevice) {
	t.Helper()
	dev := blockdev.NewMem(blocks+10, bs)
	return New(dev, 10, blocks), dev
}

func page(b byte) []byte {
	p := make([]byte, bs)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestCommitAndRecover(t *testing.T) {
	l, dev := newLog(t, 64)
	tx := l.Begin()
	tx.LogPage(100, page(1))
	tx.LogPage(101, page(2))
	if tx.PageCount() != 2 {
		t.Fatalf("PageCount = %d", tx.PageCount())
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// Recover through a fresh Log over the same region.
	l2 := New(dev, 10, 64)
	got := map[uint64][]byte{}
	n, err := l2.Recover(func(r redo.Record) error {
		no, data := r.Page, r.Data
		_, _ = no, data
		got[no] = append([]byte(nil), data...)
		return nil
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n != 2 {
		t.Fatalf("replayed %d pages, want 2", n)
	}
	if !bytes.Equal(got[100], page(1)) || !bytes.Equal(got[101], page(2)) {
		t.Error("replayed data mismatch")
	}
}

func TestUncommittedNotReplayed(t *testing.T) {
	l, dev := newLog(t, 64)
	tx1 := l.Begin()
	tx1.LogPage(1, page(1))
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Simulate a transaction whose pages hit the log but whose commit
	// record never did: log pages manually then "crash".
	tx2 := l.Begin()
	tx2.LogPage(2, page(2))
	l.mu.Lock()
	for _, p := range tx2.recs {
		if err := l.appendLocked(kindPage, tx2.id, p.Page, p.LSN, p.Data); err != nil {
			l.mu.Unlock()
			t.Fatal(err)
		}
	}
	if err := l.flushBufLocked(); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.mu.Unlock()

	l2 := New(dev, 10, 64)
	var pages []uint64
	n, err := l2.Recover(func(r redo.Record) error {
		no, data := r.Page, r.Data
		_, _ = no, data
		pages = append(pages, no)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(pages) != 1 || pages[0] != 1 {
		t.Errorf("replayed %v, want only committed page 1", pages)
	}
}

func TestAbort(t *testing.T) {
	l, dev := newLog(t, 64)
	tx := l.Begin()
	tx.LogPage(7, page(7))
	tx.Abort()
	l2 := New(dev, 10, 64)
	n, err := l2.Recover(nil)
	if err != nil || n != 0 {
		t.Errorf("recover after abort: n=%d err=%v", n, err)
	}
}

func TestRecoverEmptyLog(t *testing.T) {
	l, _ := newLog(t, 16)
	n, err := l.Recover(nil)
	if err != nil || n != 0 {
		t.Errorf("empty recover: n=%d err=%v", n, err)
	}
}

func TestMultipleTransactionsReplayInOrder(t *testing.T) {
	l, dev := newLog(t, 256)
	for i := 0; i < 5; i++ {
		tx := l.Begin()
		tx.LogPage(50, page(byte(i+1))) // same page rewritten
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	l2 := New(dev, 10, 256)
	var last []byte
	if _, err := l2.Recover(func(r redo.Record) error {
		no, data := r.Page, r.Data
		_, _ = no, data
		last = append([]byte(nil), data...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last[0] != 5 {
		t.Errorf("final replayed image = %d, want last committed (5)", last[0])
	}
}

func TestCheckpointResetsLog(t *testing.T) {
	l, dev := newLog(t, 64)
	tx := l.Begin()
	tx.LogPage(1, page(1))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if l.Used() == 0 {
		t.Fatal("Used = 0 after commit")
	}
	if err := l.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	if l.Used() != 0 {
		t.Errorf("Used = %d after checkpoint", l.Used())
	}
	l2 := New(dev, 10, 64)
	n, err := l2.Recover(nil)
	if err != nil || n != 0 {
		t.Errorf("recover after checkpoint: n=%d err=%v", n, err)
	}
	// Log must be appendable again.
	tx2 := l.Begin()
	tx2.LogPage(2, page(2))
	if err := tx2.Commit(); err != nil {
		t.Fatalf("commit after checkpoint: %v", err)
	}
}

func TestLogFull(t *testing.T) {
	l, _ := newLog(t, 4) // 2 KiB region
	tx := l.Begin()
	for i := 0; i < 8; i++ {
		tx.LogPage(uint64(i), page(byte(i)))
	}
	if err := tx.Commit(); !errors.Is(err, ErrFull) {
		t.Errorf("oversized commit = %v, want ErrFull", err)
	}
}

func TestFullThenCheckpointRetry(t *testing.T) {
	l, _ := newLog(t, 4) // one 3-page commit fits; a second does not
	fillOnce := func() error {
		tx := l.Begin()
		tx.LogPage(1, page(1))
		tx.LogPage(2, page(2))
		tx.LogPage(3, page(3))
		return tx.Commit()
	}
	if err := fillOnce(); err != nil {
		t.Fatalf("first fill: %v", err)
	}
	err := fillOnce()
	if !errors.Is(err, ErrFull) {
		t.Fatalf("second fill = %v, want ErrFull", err)
	}
	if err := l.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	if err := fillOnce(); err != nil {
		t.Fatalf("fill after checkpoint: %v", err)
	}
}

func TestTornTailDetected(t *testing.T) {
	l, dev := newLog(t, 64)
	tx := l.Begin()
	tx.LogPage(1, page(1))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	pos := l.Used() + logHdrSize // absolute byte offset within the region
	// Corrupt bytes just past the committed records to fake a torn append,
	// making sure the fake "length" field is nonzero.
	blk := 10 + pos/bs
	buf := make([]byte, bs)
	if err := dev.ReadBlock(blk, buf); err != nil {
		t.Fatal(err)
	}
	off := int(pos % bs)
	for i := off; i < bs && i < off+40; i++ {
		buf[i] = 0xA7
	}
	if err := dev.WriteBlock(blk, buf); err != nil {
		t.Fatal(err)
	}
	l2 := New(dev, 10, 64)
	n, err := l2.Recover(nil)
	if err != nil {
		t.Fatalf("Recover with torn tail: %v", err)
	}
	if n != 1 {
		t.Errorf("replayed %d, want 1 (committed record before tear)", n)
	}
}

func TestCrashMidCommitViaFaultDevice(t *testing.T) {
	mem := blockdev.NewMem(74, bs)
	fd := blockdev.NewFault(mem)
	l := New(fd, 10, 64)

	// First committed transaction survives.
	tx := l.Begin()
	tx.LogPage(1, page(1))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Second transaction: device dies partway through the commit append.
	fd.FailAfterWrites(1)
	tx2 := l.Begin()
	tx2.LogPage(2, page(2))
	tx2.LogPage(3, page(3))
	tx2.LogPage(4, page(4))
	if err := tx2.Commit(); err == nil {
		t.Fatal("commit should have failed on injected fault")
	}

	// Recover from the surviving image: only txn 1 replays.
	l2 := New(mem, 10, 64)
	var pages []uint64
	n, err := l2.Recover(func(r redo.Record) error {
		no, data := r.Page, r.Data
		_, _ = no, data
		pages = append(pages, no)
		return nil
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n != 1 || pages[0] != 1 {
		t.Errorf("replayed %v, want [1]", pages)
	}
}

func TestRecoverContinuesAppending(t *testing.T) {
	l, dev := newLog(t, 128)
	tx := l.Begin()
	tx.LogPage(1, page(1))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	l2 := New(dev, 10, 128)
	if _, err := l2.Recover(nil); err != nil {
		t.Fatal(err)
	}
	// Appends after recovery must not collide with existing records and
	// new txn ids must be fresh.
	tx2 := l2.Begin()
	tx2.LogPage(2, page(2))
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx2.id <= 1 {
		t.Errorf("post-recovery txn id %d not advanced", tx2.id)
	}
	l3 := New(dev, 10, 128)
	n, err := l3.Recover(nil)
	if err != nil || n != 2 {
		t.Errorf("final recover n=%d err=%v, want 2", n, err)
	}
}

func TestStats(t *testing.T) {
	l, _ := newLog(t, 128)
	for i := 0; i < 3; i++ {
		tx := l.Begin()
		tx.LogPage(uint64(i), page(byte(i)))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s := l.Stats()
	if s.Commits != 3 || s.PagesLogged != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.BytesLogged == 0 {
		t.Error("BytesLogged = 0")
	}
}

func TestManySmallCommitsSpanBlocks(t *testing.T) {
	l, dev := newLog(t, 128)
	for i := 0; i < 40; i++ {
		tx := l.Begin()
		tx.LogPage(uint64(i), page(byte(i)))
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	l2 := New(dev, 10, 128)
	got := map[uint64]byte{}
	n, err := l2.Recover(func(r redo.Record) error {
		no, data := r.Page, r.Data
		_, _ = no, data
		got[no] = data[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("replayed %d, want 40", n)
	}
	for i := 0; i < 40; i++ {
		if got[uint64(i)] != byte(i) {
			t.Fatalf("page %d replayed %d", i, got[uint64(i)])
		}
	}
}

func TestVaryingPayloadSizes(t *testing.T) {
	l, dev := newLog(t, 256)
	sizes := []int{0, 1, 7, 100, 511, 512, 513, 2000}
	tx := l.Begin()
	for i, sz := range sizes {
		p := make([]byte, sz)
		for j := range p {
			p[j] = byte(i)
		}
		tx.LogPage(uint64(i), p)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	l2 := New(dev, 10, 256)
	var lens []int
	if _, err := l2.Recover(func(r redo.Record) error {
		no, data := r.Page, r.Data
		_, _ = no, data
		lens = append(lens, len(data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, sz := range sizes {
		if lens[i] != sz {
			t.Errorf("record %d replayed %d bytes, want %d", i, lens[i], sz)
		}
	}
	_ = fmt.Sprintf("%v", lens)
}

// TestGroupCommitConcurrent drives many committers through the group
// path at once: every commit must be durable and replayable, ids must
// stay monotone in log order (recovery replays everything), and the
// number of device syncs must not exceed the number of commits.
func TestGroupCommitConcurrent(t *testing.T) {
	const writers = 8
	const perWriter = 40
	l, dev := newLog(t, 2048)
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := l.Begin()
				// One page per writer, rewritten with the sequence number.
				p := page(byte(i))
				p[1] = byte(w)
				tx.LogPage(uint64(100+w), p)
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent commit: %v", err)
	}
	s := l.Stats()
	if s.Commits != writers*perWriter {
		t.Fatalf("Commits = %d, want %d", s.Commits, writers*perWriter)
	}
	if s.Syncs > s.Commits {
		t.Errorf("Syncs = %d > Commits = %d", s.Syncs, s.Commits)
	}
	if s.Groups != s.Syncs {
		t.Errorf("Groups = %d, Syncs = %d, want equal", s.Groups, s.Syncs)
	}
	// Every writer's final image must replay: commits were acknowledged.
	l2 := New(dev, 10, 2048)
	final := map[uint64]byte{}
	n, err := l2.Recover(func(r redo.Record) error {
		no, data := r.Page, r.Data
		_, _ = no, data
		final[no] = data[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter {
		t.Fatalf("replayed %d pages, want %d", n, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		if final[uint64(100+w)] != perWriter-1 {
			t.Errorf("writer %d final image = %d, want %d", w, final[uint64(100+w)], perWriter-1)
		}
	}
}

// TestGroupCommitCrashMidGroup cuts device power at randomized points
// while concurrent committers run, then checks the two recovery promises
// of group commit: every commit that reported success replays, and the
// torn tail past the cut is dropped rather than mis-replayed.
func TestGroupCommitCrashMidGroup(t *testing.T) {
	for _, cut := range []int64{3, 7, 15, 29, 61} {
		const writers = 6
		mem := blockdev.NewMem(2058, bs)
		fd := blockdev.NewFault(mem)
		fd.SetTornWrites(true)
		l := New(fd, 10, 2048)
		fd.FailAfterWrites(cut)

		// acked[w] is the highest sequence number writer w successfully
		// committed before the device died.
		acked := make([]int, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			acked[w] = -1
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					tx := l.Begin()
					p := page(byte(i))
					tx.LogPage(uint64(200+w), p)
					if err := tx.Commit(); err != nil {
						return // power gone; everything after is lost
					}
					acked[w] = i
				}
			}(w)
		}
		wg.Wait()

		// Recover from the surviving raw image.
		l2 := New(mem, 10, 2048)
		final := map[uint64]int{}
		for w := 0; w < writers; w++ {
			final[uint64(200+w)] = -1
		}
		if _, err := l2.Recover(func(r redo.Record) error {
			no, data := r.Page, r.Data
			_, _ = no, data
			final[no] = int(data[0])
			return nil
		}); err != nil {
			t.Fatalf("cut=%d: Recover: %v", cut, err)
		}
		for w := 0; w < writers; w++ {
			if final[uint64(200+w)] < acked[w] {
				t.Errorf("cut=%d: writer %d acked seq %d but recovered only %d",
					cut, w, acked[w], final[uint64(200+w)])
			}
		}
	}
}

// TestGroupCommitFaultVerdictsMatchRecovery pins the contract failGroup
// exists for: after a device error mid group commit, the per-batch
// verdicts must agree EXACTLY with what recovery replays. The staging
// buffer flushes whenever head crosses a block boundary, so a batch's
// commit record can be durable before a later write in the same group
// fails; erroring it (the old blanket poisoning) resurrects the "failed"
// operation at recovery. The converse — acking a batch whose commit
// record never persisted — would lose an acknowledged write. With one
// monotonically numbered page per writer, both directions collapse to
// recovered == acked.
func TestGroupCommitFaultVerdictsMatchRecovery(t *testing.T) {
	for _, torn := range []bool{false, true} {
		for _, cut := range []int64{3, 7, 15, 29, 61, 113} {
			const writers = 6
			mem := blockdev.NewMem(2058, bs)
			fd := blockdev.NewFault(mem)
			fd.SetTornWrites(torn)
			l := New(fd, 10, 2048)
			fd.FailAfterWrites(cut)

			acked := make([]int, writers)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				acked[w] = -1
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						tx := l.Begin()
						tx.LogPage(uint64(200+w), page(byte(i)))
						if err := tx.Commit(); err != nil {
							return
						}
						acked[w] = i
					}
				}(w)
			}
			wg.Wait()

			l2 := New(mem, 10, 2048)
			final := map[uint64]int{}
			for w := 0; w < writers; w++ {
				final[uint64(200+w)] = -1
			}
			if _, err := l2.Recover(func(r redo.Record) error {
				final[r.Page] = int(r.Data[0])
				return nil
			}); err != nil {
				t.Fatalf("torn=%v cut=%d: Recover: %v", torn, cut, err)
			}
			for w := 0; w < writers; w++ {
				if got := final[uint64(200+w)]; got != acked[w] {
					t.Errorf("torn=%v cut=%d: writer %d acked seq %d but recovery replayed %d",
						torn, cut, w, acked[w], got)
				}
			}
		}
	}
}

// TestGroupCommitErrFullIsPerBatch: a batch too large for the remaining
// region fails with ErrFull while a small batch in the same group
// commits.
func TestGroupCommitErrFullIsPerBatch(t *testing.T) {
	l, dev := newLog(t, 8) // 4 KiB region
	// Fill most of the region.
	tx := l.Begin()
	tx.LogPage(1, page(1))
	tx.LogPage(2, page(2))
	tx.LogPage(3, page(3))
	tx.LogPage(4, page(4))
	if err := tx.Commit(); err != nil {
		t.Fatalf("prefill: %v", err)
	}
	// A big batch no longer fits; a small one still does.
	big := l.Begin()
	for i := 0; i < 8; i++ {
		big.LogPage(uint64(10+i), page(byte(i)))
	}
	if err := big.Commit(); !errors.Is(err, ErrFull) {
		t.Fatalf("big commit = %v, want ErrFull", err)
	}
	small := l.Begin()
	small.LogPage(30, page(30))
	if err := small.Commit(); err != nil {
		t.Fatalf("small commit after ErrFull neighbour: %v", err)
	}
	l2 := New(dev, 10, 8)
	n, err := l2.Recover(nil)
	if err != nil || n != 5 {
		t.Errorf("recover n=%d err=%v, want 5 (prefill + small)", n, err)
	}
}

// TestStaleSuffixFenced pins the fix for the dangling-stale-suffix bug: a
// crash between a commit record reaching the device and its end marker
// leaves earlier-generation records (valid CRC, valid commit) beyond the
// tail. Recovery must stop at the first txid that goes backwards rather
// than replay them.
func TestStaleSuffixFenced(t *testing.T) {
	l, dev := newLog(t, 64)
	// Hand-build a log: txn 5 (current tail), then txn 3 (stale leftover)
	// immediately after — no end marker in between, as in the crash window.
	l.mu.Lock()
	if err := l.appendLocked(kindPage, 5, 100, 0, page(5)); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	if err := l.appendLocked(kindCommit, 5, 0, 0, nil); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	if err := l.appendLocked(kindPage, 3, 100, 0, page(3)); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	if err := l.appendLocked(kindCommit, 3, 0, 0, nil); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	if err := l.flushBufLocked(); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.mu.Unlock()

	l2 := New(dev, 10, 64)
	var got []byte
	n, err := l2.Recover(func(r redo.Record) error {
		no, data := r.Page, r.Data
		_, _ = no, data
		got = append([]byte(nil), data...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d pages, want 1 (stale txn 3 must be fenced)", n)
	}
	if got[0] != 5 {
		t.Errorf("replayed image from txn %d, want 5", got[0])
	}
}

// TestTxnIdsMonotonicAcrossCheckpoint pins the header high-water mark: a
// checkpointed (empty) log must not reset ids, or stale records with
// higher ids would pass the backwards fence.
func TestTxnIdsMonotonicAcrossCheckpoint(t *testing.T) {
	l, dev := newLog(t, 64)
	var lastID uint64
	for i := 0; i < 5; i++ {
		tx := l.Begin()
		tx.LogPage(1, page(byte(i)))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		lastID = tx.id
	}
	if err := l.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	// A fresh Log over the checkpointed (empty) region must continue the
	// id sequence, not restart at 1.
	l2 := New(dev, 10, 64)
	if _, err := l2.Recover(nil); err != nil {
		t.Fatal(err)
	}
	tx := l2.Begin()
	tx.LogPage(1, page(9))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.id <= lastID {
		t.Fatalf("post-checkpoint txn id %d did not advance past %d", tx.id, lastID)
	}
}

// TestLSNOrderedReplay: transactions appended in commit order replay in
// LSN (mutation) order — the inversion that would let a group-committed
// stale write win over a fresher acknowledged one.
func TestLSNOrderedReplay(t *testing.T) {
	l, dev := newLog(t, 64)

	// Mutation order: LSN 1 writes range "AA" at 0, LSN 2 writes "BB"
	// at 0. Commit order is reversed.
	t2 := l.Begin()
	t2.LogRecord(redo.Record{LSN: 2, Page: 7, Kind: redo.KindRange, Data: redo.EncodeRange(0, []byte("BB"))})
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	t1 := l.Begin()
	t1.LogRecord(redo.Record{LSN: 1, Page: 7, Kind: redo.KindRange, Data: redo.EncodeRange(0, []byte("AA"))})
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}

	l2 := New(dev, 10, 64)
	var got []uint64
	if _, err := l2.Recover(func(r redo.Record) error {
		got = append(got, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("replay order by LSN = %v, want [1 2]", got)
	}
	if l2.MaxLSN() != 2 {
		t.Errorf("MaxLSN = %d, want 2", l2.MaxLSN())
	}
}

// TestAppendSystemRecoveredWithoutSync: a system transaction appended
// without its own sync becomes durable with the next commit's sync and
// replays like any committed transaction.
func TestAppendSystemRecoveredWithoutSync(t *testing.T) {
	l, dev := newLog(t, 64)
	if err := l.AppendSystem([]redo.Record{
		{LSN: 1, Page: 3, Kind: redo.KindRange, Data: redo.EncodeRange(4, []byte("sys"))},
	}); err != nil {
		t.Fatal(err)
	}
	tx := l.Begin()
	tx.LogRecord(redo.Record{LSN: 2, Page: 4, Kind: redo.KindRange, Data: redo.EncodeRange(0, []byte("op"))})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	l2 := New(dev, 10, 64)
	var pages []uint64
	n, err := l2.Recover(func(r redo.Record) error {
		pages = append(pages, r.Page)
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("Recover = %d, %v; want 2 records", n, err)
	}
	if pages[0] != 3 || pages[1] != 4 {
		t.Fatalf("replayed pages = %v, want [3 4]", pages)
	}
	if l.Stats().SystemTxns != 1 {
		t.Errorf("SystemTxns = %d", l.Stats().SystemTxns)
	}
}

// TestWedgeBlocksCommitsUntilCheckpoint: a system transaction that
// cannot fit wedges the log; commits fail with ErrFull until a
// checkpoint resets it.
func TestWedgeBlocksCommitsUntilCheckpoint(t *testing.T) {
	l, _ := newLog(t, 2) // tiny region
	big := make([]byte, 3*bs)
	err := l.AppendSystem([]redo.Record{{LSN: 1, Page: 1, Kind: redo.KindRange, Data: big}})
	if !errors.Is(err, ErrFull) {
		t.Fatalf("oversized system txn = %v, want ErrFull", err)
	}
	if !l.Wedged() {
		t.Fatal("log not wedged after failed system append")
	}
	tx := l.Begin()
	tx.LogRecord(redo.Record{LSN: 2, Page: 2, Kind: redo.KindRange, Data: redo.EncodeRange(0, []byte("x"))})
	if err := tx.Commit(); !errors.Is(err, ErrFull) {
		t.Fatalf("commit on wedged log = %v, want ErrFull", err)
	}
	if err := l.Checkpoint(5); err != nil {
		t.Fatal(err)
	}
	if l.Wedged() {
		t.Fatal("checkpoint did not clear the wedge")
	}
	tx2 := l.Begin()
	tx2.LogRecord(redo.Record{LSN: 6, Page: 2, Kind: redo.KindRange, Data: redo.EncodeRange(0, []byte("y"))})
	if err := tx2.Commit(); err != nil {
		t.Fatalf("commit after checkpoint: %v", err)
	}
}

// TestLSNFenceDropsStaleGeneration: records stamped at or below the
// persisted checkpoint fence are stale-generation leftovers and must not
// replay, even with valid CRCs and plausible txids.
func TestLSNFenceDropsStaleGeneration(t *testing.T) {
	l, dev := newLog(t, 64)
	tx := l.Begin()
	tx.LogRecord(redo.Record{LSN: 9, Page: 1, Kind: redo.KindRange, Data: redo.EncodeRange(0, []byte("old"))})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint with fence 10: everything stamped ≤ 10 is now history.
	if err := l.Checkpoint(10); err != nil {
		t.Fatal(err)
	}
	// Simulate a stale suffix: re-append the same old-LSN record (as if
	// it survived from the previous generation past a new, shorter tail).
	tx2 := l.Begin()
	tx2.LogRecord(redo.Record{LSN: 9, Page: 1, Kind: redo.KindRange, Data: redo.EncodeRange(0, []byte("old"))})
	tx2.LogRecord(redo.Record{LSN: 11, Page: 2, Kind: redo.KindRange, Data: redo.EncodeRange(0, []byte("new"))})
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	l2 := New(dev, 10, 64)
	var pages []uint64
	if _, err := l2.Recover(func(r redo.Record) error {
		pages = append(pages, r.Page)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 || pages[0] != 2 {
		t.Fatalf("replayed pages = %v, want only page 2 (LSN 11)", pages)
	}
	if l2.MaxLSN() < 11 {
		t.Errorf("MaxLSN = %d, want ≥ 11", l2.MaxLSN())
	}
}

// readCounter counts block reads.
type readCounter struct {
	blockdev.Device
	reads int
}

func (d *readCounter) ReadBlock(n uint64, p []byte) error {
	d.reads++
	return d.Device.ReadBlock(n, p)
}

// TestRecoverReadsEachTailBlockOnce: once recovery costs what the tail
// costs, the scan's reads are its largest constant. Small records (many
// to a block, some straddling two) used to cost two fresh block reads
// each — one for the length prefix, one for the body; the scan now moves
// forward through one block buffer, so a tail of B blocks costs at most
// B + 2 reads (the header block, and the block the end marker is in).
func TestRecoverReadsEachTailBlockOnce(t *testing.T) {
	l, dev := newLog(t, 512)
	payload := make([]byte, 40)
	for i := 0; i < 600; i++ {
		tx := l.Begin()
		for j := 0; j < 3; j++ {
			tx.LogRecord(redo.Record{LSN: uint64(i*3 + j + 1), Page: uint64(i), Kind: redo.KindRange, Data: payload})
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tailBlocks := (int(l.Used()) + logHdrSize + bs - 1) / bs
	if tailBlocks < 100 {
		t.Fatalf("tail of %d blocks is too short to tell", tailBlocks)
	}
	cd := &readCounter{Device: dev}
	l2 := New(cd, 10, 512)
	n, err := l2.Recover(func(redo.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1800 {
		t.Fatalf("replayed %d records, want 1800", n)
	}
	if cd.reads > tailBlocks+2 {
		t.Fatalf("Recover read %d blocks for a tail of %d", cd.reads, tailBlocks)
	}
	if st := l2.Stats(); st.RecordsScanned != 2400 || st.BytesScanned != int64(l.Used()) {
		t.Fatalf("scan stats: %d records, %d bytes; want 2400 records, %d bytes", st.RecordsScanned, st.BytesScanned, l.Used())
	}
}
