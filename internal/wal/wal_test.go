package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/redo"
)

const bs = 512

func newLog(t *testing.T, blocks uint64) (*Log, *blockdev.MemDevice) {
	t.Helper()
	dev := blockdev.NewMem(blocks+10, bs)
	return New(dev, 10, blocks), dev
}

// lsns stamps the records the tests stage, in staging order, as the
// pager does.
var lsns atomic.Uint64

// logImage stages the post-image of page no as a stamped record.
func logImage(tx *Txn, no uint64, data []byte) {
	tx.LogRecord(redo.Record{LSN: lsns.Add(1), Page: no, Kind: redo.KindImage, Data: data})
}

// writeFrame appends a hand-built frame at head, as appendTxnLocked
// would, without the fit check or a fresh id.
func writeFrame(t *testing.T, l *Log, kind uint8, txid, link uint64, recs []redo.Record) {
	t.Helper()
	f, err := appendFrame(nil, kind, txid, link, recs)
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writeBytesLocked(f); err != nil {
		t.Fatal(err)
	}
}

// flush writes the staging block to the device.
func flush(t *testing.T, l *Log) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushBufLocked(); err != nil {
		t.Fatal(err)
	}
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
	logImage(tx, 100, page(1))
	logImage(tx, 101, page(2))
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
	logImage(tx1, 1, page(1))
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Simulate a transaction whose records hit the log but whose frame
	// never ended: write all of its frame but the last byte, then "crash".
	tx2 := l.Begin()
	logImage(tx2, 2, page(2))
	f, err := appendFrame(nil, kindCommit, l.nextTx.Load(), 0, tx2.recs)
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	err = l.writeBytesLocked(f[:len(f)-1])
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	flush(t, l)

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
	logImage(tx, 7, page(7))
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
		logImage(tx, 50, page(byte(i+1))) // same page rewritten
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
	logImage(tx, 1, page(1))
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
	logImage(tx2, 2, page(2))
	if err := tx2.Commit(); err != nil {
		t.Fatalf("commit after checkpoint: %v", err)
	}
}

func TestLogFull(t *testing.T) {
	l, _ := newLog(t, 4) // 2 KiB region
	tx := l.Begin()
	for i := 0; i < 8; i++ {
		logImage(tx, uint64(i), page(byte(i)))
	}
	if err := tx.Commit(); !errors.Is(err, ErrFull) {
		t.Errorf("oversized commit = %v, want ErrFull", err)
	}
}

func TestFullThenCheckpointRetry(t *testing.T) {
	l, _ := newLog(t, 4) // one 3-page commit fits; a second does not
	fillOnce := func() error {
		tx := l.Begin()
		logImage(tx, 1, page(1))
		logImage(tx, 2, page(2))
		logImage(tx, 3, page(3))
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
	logImage(tx, 1, page(1))
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
	logImage(tx, 1, page(1))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Second transaction: device dies partway through the commit append.
	fd.FailAfterWrites(1)
	tx2 := l.Begin()
	logImage(tx2, 2, page(2))
	logImage(tx2, 3, page(3))
	logImage(tx2, 4, page(4))
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
	logImage(tx, 1, page(1))
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
	logImage(tx2, 2, page(2))
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
		logImage(tx, uint64(i), page(byte(i)))
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
		logImage(tx, uint64(i), page(byte(i)))
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
		logImage(tx, uint64(i), p)
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
				logImage(tx, uint64(100+w), p)
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

// gateDevice parks the first Sync until release is closed, so a test can
// queue committers behind an in-flight sync without relying on timing.
type gateDevice struct {
	blockdev.Device
	once    sync.Once
	parked  chan struct{} // closed once the first Sync is parked
	release chan struct{}
}

func (d *gateDevice) Sync() error {
	d.once.Do(func() {
		close(d.parked)
		<-d.release
	})
	return d.Device.Sync()
}

// TestGroupCommitRidesInFlightSync pins group commit as a count: while
// one leader's sync is in flight, every commit that arrives queues, and
// the next leader drains the whole queue into one append and one sync.
// Sixteen committers therefore cost two syncs, not sixteen.
func TestGroupCommitRidesInFlightSync(t *testing.T) {
	const writers = 16
	dev := &gateDevice{
		Device:  blockdev.NewMem(2048+10, bs),
		parked:  make(chan struct{}),
		release: make(chan struct{}),
	}
	l := New(dev, 10, 2048)
	errs := make(chan error, writers)
	commit := func(w int) {
		tx := l.Begin()
		logImage(tx, uint64(100+w), page(byte(w)))
		errs <- tx.Commit()
	}

	go commit(0)
	<-dev.parked
	for w := 1; w < writers; w++ {
		go commit(w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		l.gmu.Lock()
		queued := len(l.gqueue)
		l.gmu.Unlock()
		if queued == writers-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d committers queued behind the in-flight sync", queued, writers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(dev.release)
	for i := 0; i < writers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	s := l.Stats()
	if s.Commits != writers || s.Syncs != 2 || s.Groups != 2 {
		t.Fatalf("Commits=%d Syncs=%d Groups=%d, want %d, 2, 2", s.Commits, s.Syncs, s.Groups, writers)
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
					logImage(tx, uint64(200+w), p)
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
						logImage(tx, uint64(200+w), page(byte(i)))
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
	logImage(tx, 1, page(1))
	logImage(tx, 2, page(2))
	logImage(tx, 3, page(3))
	logImage(tx, 4, page(4))
	if err := tx.Commit(); err != nil {
		t.Fatalf("prefill: %v", err)
	}
	// A big batch no longer fits; a small one still does.
	big := l.Begin()
	for i := 0; i < 8; i++ {
		logImage(big, uint64(10+i), page(byte(i)))
	}
	if err := big.Commit(); !errors.Is(err, ErrFull) {
		t.Fatalf("big commit = %v, want ErrFull", err)
	}
	small := l.Begin()
	logImage(small, 30, page(30))
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
	writeFrame(t, l, kindCommit, 5, 0, []redo.Record{{LSN: 2, Page: 100, Kind: redo.KindImage, Data: page(5)}})
	writeFrame(t, l, kindCommit, 3, 0, []redo.Record{{LSN: 1, Page: 100, Kind: redo.KindImage, Data: page(3)}})
	flush(t, l)

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
		logImage(tx, 1, page(byte(i)))
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
	logImage(tx, 1, page(9))
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
	if st := l2.Stats(); st.RecordsScanned != 1800 || st.BytesScanned != int64(l.Used()) {
		t.Fatalf("scan stats: %d records, %d bytes; want 1800 records, %d bytes", st.RecordsScanned, st.BytesScanned, l.Used())
	}
}

// writeCounter counts block writes.
type writeCounter struct {
	blockdev.Device
	writes int
}

func (d *writeCounter) WriteBlock(n uint64, p []byte) error {
	d.writes++
	return d.Device.WriteBlock(n, p)
}

// TestAppendsWaitForTheSync: system transactions and chunks leave their
// records in the staging block, and the commit after them writes the
// block once; Sync writes the block only when it holds bytes the device
// has not been given. Everything replays.
func TestAppendsWaitForTheSync(t *testing.T) {
	dev := &writeCounter{Device: blockdev.NewMem(74, bs)}
	l := New(dev, 10, 64)
	rec := func(lsn uint64) redo.Record {
		return redo.Record{LSN: lsn, Page: lsn, Kind: redo.KindRange, Data: redo.EncodeRange(0, []byte("x"))}
	}
	const k = 3
	for i := uint64(1); i <= k; i++ {
		if err := l.AppendSystem([]redo.Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	chain, err := l.AppendChunk(0, []redo.Record{rec(k + 1)})
	if err != nil {
		t.Fatal(err)
	}
	if dev.writes != 0 {
		t.Fatalf("%d system transactions and a chunk wrote %d blocks, want 0", k, dev.writes)
	}
	tx := l.Begin()
	tx.LogRecord(rec(k + 2))
	tx.SetChain(chain)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if l.Used()+logHdrSize > bs {
		t.Fatalf("%d bytes do not fit one block; the test needs them to", l.Used())
	}
	if dev.writes != 1 {
		t.Fatalf("the commit after %d system transactions and a chunk wrote the tail block %d times, want 1", k, dev.writes)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if dev.writes != 1 {
		t.Fatalf("Sync rewrote a block the device already has: %d writes", dev.writes)
	}
	if err := l.AppendSystem([]redo.Record{rec(k + 3)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if dev.writes != 2 {
		t.Fatalf("Sync after an append: %d writes, want 2", dev.writes)
	}
	if got := l.Stats().BlockWrites; got != int64(dev.writes) {
		t.Fatalf("BlockWrites = %d, the device saw %d", got, dev.writes)
	}
	n, err := New(dev, 10, 64).Recover(nil)
	if err != nil || n != k+3 {
		t.Fatalf("Recover = %d, %v; want %d records", n, err, k+3)
	}
}

// regionImage returns a copy of the device's blocks.
func regionImage(t *testing.T, dev blockdev.Device) [][]byte {
	t.Helper()
	img := make([][]byte, dev.NumBlocks())
	for i := range img {
		img[i] = make([]byte, dev.BlockSize())
		if err := dev.ReadBlock(uint64(i), img[i]); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// deviceOf builds a memory device holding img.
func deviceOf(t *testing.T, img [][]byte) *blockdev.MemDevice {
	t.Helper()
	dev := blockdev.NewMem(uint64(len(img)), bs)
	for i, b := range img {
		if err := dev.WriteBlock(uint64(i), b); err != nil {
			t.Fatal(err)
		}
	}
	return dev
}

// replayed recovers the log at block 10 of dev and returns what it
// replayed, one "page:first payload byte" entry per record.
func replayed(t *testing.T, dev blockdev.Device, blocks uint64) ([]string, *Log, error) {
	t.Helper()
	l := New(dev, 10, blocks)
	var got []string
	_, err := l.Recover(func(r redo.Record) error {
		got = append(got, fmt.Sprintf("%d:%d", r.Page, r.Data[0]))
		return nil
	})
	return got, l, err
}

// TestPowerCutAtEveryByteOfAFrame cuts the power at every byte of a
// frame that spans three blocks: the device holds the frame's first i
// bytes and, past them, what the region held before — the previous
// tail's end marker and zeros in its block, stale bytes beyond. Every
// earlier frame replays, the cut frame does not, and the log takes the
// next append and recovers it.
func TestPowerCutAtEveryByteOfAFrame(t *testing.T) {
	const blocks = 16
	mem := blockdev.NewMem(blocks+10, bs)
	stale := bytes.Repeat([]byte{0xA7}, bs)
	for b := uint64(10); b < blocks+10; b++ {
		if err := mem.WriteBlock(b, stale); err != nil {
			t.Fatal(err)
		}
	}
	l := New(mem, 10, blocks)
	if err := l.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	commit := func(l *Log, pages ...uint64) {
		t.Helper()
		tx := l.Begin()
		for _, p := range pages {
			logImage(tx, p, page(byte(p)))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(l, 1)
	before := regionImage(t, mem)
	c0 := l.Used() + logHdrSize
	commit(l, 2, 3)
	c1 := l.Used() + logHdrSize
	if first, last := c0/bs, (c1-1)/bs; last-first != 2 {
		t.Fatalf("the frame spans blocks %d to %d, want three", first, last)
	}
	after := regionImage(t, mem)
	for i := uint64(0); i < c1-c0; i++ {
		img := make([][]byte, len(before))
		for b := range img {
			img[b] = bytes.Clone(before[b])
		}
		for off := c0; off < c0+i; off++ {
			b, o := 10+off/bs, off%bs
			img[b][o] = after[b][o]
		}
		dev := deviceOf(t, img)
		got, l2, err := replayed(t, dev, blocks)
		if err != nil || fmt.Sprint(got) != "[1:1]" {
			t.Fatalf("cut at byte %d of %d: replayed %v, %v; want [1:1]", i, c1-c0, got, err)
		}
		commit(l2, 4)
		if got, _, err := replayed(t, dev, blocks); err != nil || fmt.Sprint(got) != "[1:1 4:4]" {
			t.Fatalf("cut at byte %d, then an append: replayed %v, %v; want [1:1 4:4]", i, got, err)
		}
	}
}

// TestStaleFrameAfterTailEndsTheScan: the end marker after the last
// frame can be lost — it was to go to the next block, which the crash
// kept from the device — and the bytes in its place are stale: a whole
// frame of an earlier log pass, with a lower txid, or the middle of one.
// For every offset into two stale frames, recovery replays the tail
// frame, stops without an error, and the log takes the next append.
func TestStaleFrameAfterTailEndsTheScan(t *testing.T) {
	rec := func(lsn, pg uint64, b byte) redo.Record {
		return redo.Record{LSN: lsn, Page: pg, Kind: redo.KindImage, Data: bytes.Repeat([]byte{b}, 40)}
	}
	var old []byte
	for txid := uint64(3); txid <= 4; txid++ {
		f, err := appendFrame(nil, kindCommit, txid, 0, []redo.Record{rec(txid, 7, 3), rec(txid+100, 8, 3)})
		if err != nil {
			t.Fatal(err)
		}
		old = append(old, f...)
	}
	for s := range old {
		l, dev := newLog(t, 8)
		writeFrame(t, l, kindCommit, 10, 0, []redo.Record{rec(500, 9, 10)})
		l.mu.Lock()
		err := l.writeBytesLocked(old[s:])
		l.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		flush(t, l)
		got, l2, err := replayed(t, dev, 8)
		if err != nil || fmt.Sprint(got) != "[9:10]" {
			t.Fatalf("stale bytes from offset %d: replayed %v, %v; want [9:10]", s, got, err)
		}
		tx := l2.Begin()
		tx.LogRecord(rec(501, 11, 11))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got, _, err := replayed(t, dev, 8); err != nil || fmt.Sprint(got) != "[9:10 11:11]" {
			t.Fatalf("stale bytes from offset %d, then an append: replayed %v, %v", s, got, err)
		}
	}
}

// sealFrame wraps a hand-built body in its length and CRC trailer.
func sealFrame(body []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	f = append(f, body...)
	return binary.LittleEndian.AppendUint32(f, crc32.Checksum(f, crcTable))
}

// TestFrameFieldsOverrunIsCorrupt: a frame whose CRC holds but whose
// count or length fields overrun it, or that decodes to something this
// package never writes, fails Recover with ErrCorrupt — not a panic, and
// not a quiet stop, since no torn write leaves a frame whose CRC holds.
// The same frame with a CRC that does not hold is a torn tail: the frames
// before it replay and Recover succeeds.
func TestFrameFieldsOverrunIsCorrupt(t *testing.T) {
	hdr := func(kind uint8, count uint64) []byte {
		b := []byte{kind}
		b = binary.AppendUvarint(b, 2) // txid
		b = binary.AppendUvarint(b, 0) // link
		return binary.AppendUvarint(b, count)
	}
	record := func(kind uint8, n uint64, dpage, dlsn int64, payload []byte) []byte {
		b := []byte{kind}
		b = binary.AppendUvarint(b, n)
		b = binary.AppendVarint(b, dpage)
		b = binary.AppendVarint(b, dlsn)
		return append(b, payload...)
	}
	one := record(redo.KindRange, 3, 5, 9, []byte{1, 2, 3})
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"count past the records", append(hdr(kindCommit, 2), one...)},
		{"count past the body", append(hdr(kindCommit, 1<<40), one...)},
		{"payload length past the body", append(hdr(kindCommit, 1), record(redo.KindRange, 4, 5, 9, []byte{1, 2, 3})...)},
		{"varint past the body", append(hdr(kindCommit, 1), redo.KindRange, 0x80)},
		{"bytes after the last record", append(append(hdr(kindCommit, 1), one...), 0)},
		{"no header", []byte{kindCommit}},
		{"frame kind", append(hdr(3, 1), one...)},
		{"record with LSN 0", append(hdr(kindChunk, 1), record(redo.KindRange, 3, 5, 0, []byte{1, 2, 3})...)},
	} {
		for _, torn := range []bool{false, true} {
			l, dev := newLog(t, 8)
			writeFrame(t, l, kindCommit, 1, 0, []redo.Record{{LSN: 1, Page: 4, Kind: redo.KindRange, Data: []byte{4, 0, 0, 0}}})
			f := sealFrame(tc.body)
			if torn {
				f[len(f)-1] ^= 1
			}
			l.mu.Lock()
			err := l.writeBytesLocked(f)
			l.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			flush(t, l)
			got, _, err := replayed(t, dev, 8)
			switch {
			case torn && (err != nil || fmt.Sprint(got) != "[4:4]"):
				t.Errorf("%s, torn: replayed %v, %v; want [4:4] and no error", tc.name, got, err)
			case !torn && !errors.Is(err, ErrCorrupt):
				t.Errorf("%s: Recover = %v, want ErrCorrupt", tc.name, err)
			}
		}
	}
}

// FuzzDecodeFrame: no input makes decodeFrame panic. One whose length or
// CRC does not hold is torn; one that holds and decodes re-encodes to a
// frame that decodes to the same header and records. The seed corpus in
// testdata/fuzz/FuzzDecodeFrame holds a commit frame of three records
// (a CLR, an undo record without payload, page and LSN deltas of both
// signs), a chunk frame, the commit frame short by a byte, with a bit of
// its CRC or of its body flipped, a frame whose count overruns it, and
// nothing.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		h, recs, err := decodeFrame(frame, nil)
		whole := len(frame) >= frameOverhead &&
			binary.LittleEndian.Uint32(frame) == uint32(len(frame)-frameOverhead) &&
			binary.LittleEndian.Uint32(frame[len(frame)-4:]) == crc32.Checksum(frame[:len(frame)-4], crcTable)
		switch {
		case !whole:
			if !errors.Is(err, errTorn) {
				t.Fatalf("a frame whose length or CRC does not hold: %v, want errTorn", err)
			}
		case err != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("a frame whose CRC holds: %v, want ErrCorrupt or success", err)
			}
		default:
			again, err := appendFrame(nil, h.kind, h.txid, h.link, recs)
			if err != nil {
				t.Fatalf("re-encoding %+v: %v", h, err)
			}
			h2, recs2, err := decodeFrame(again, nil)
			if err != nil || h2 != h || !reflect.DeepEqual(recs2, recs) {
				t.Fatalf("round trip: %+v %v → %+v %v, %v", h, recs, h2, recs2, err)
			}
		}
	})
}

// TestRecoveredRecordsOwnTheirBytes: apply may keep a record's Data and
// write to it (recovery takes a page's first logged image as the page
// itself), so no record's bytes may alias another's, within a frame or
// across frames.
func TestRecoveredRecordsOwnTheirBytes(t *testing.T) {
	l, dev := newLog(t, 128)
	for i := 0; i < 6; i++ {
		tx := l.Begin()
		for j := 0; j < 3; j++ {
			logImage(tx, uint64(3*i+j), page(byte(3*i+j+1)))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var kept [][]byte
	n, err := New(dev, 10, 128).Recover(func(r redo.Record) error {
		if !bytes.Equal(r.Data, page(byte(r.Page+1))) {
			return fmt.Errorf("page %d: its bytes changed under an earlier record's apply", r.Page)
		}
		for i := range r.Data {
			r.Data[i] = 0xEE
		}
		kept = append(kept, r.Data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 18 {
		t.Fatalf("replayed %d, want 18", n)
	}
	for i, d := range kept {
		if !bytes.Equal(d, bytes.Repeat([]byte{0xEE}, bs)) {
			t.Fatalf("record %d: kept bytes changed after its apply", i)
		}
	}
}
