package pager

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/redo"
)

func newPager(t *testing.T, blocks uint64, capacity int, evictDirty bool) (*Pager, *blockdev.MemDevice) {
	t.Helper()
	dev := blockdev.NewMem(blocks, 512)
	return New(dev, capacity, evictDirty), dev
}

func TestAcquireReleaseRoundtrip(t *testing.T) {
	p, dev := newPager(t, 32, 8, true)
	want := make([]byte, 512)
	want[0] = 42
	if err := dev.WriteBlock(5, want); err != nil {
		t.Fatal(err)
	}
	pg, err := p.Acquire(5)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if pg.Data()[0] != 42 {
		t.Errorf("page data[0] = %d, want 42", pg.Data()[0])
	}
	if pg.No() != 5 {
		t.Errorf("page no = %d, want 5", pg.No())
	}
	p.Release(pg)
}

func TestCacheHit(t *testing.T) {
	p, _ := newPager(t, 32, 8, true)
	pg, _ := p.Acquire(1)
	p.Release(pg)
	pg2, _ := p.Acquire(1)
	p.Release(pg2)
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", s.Hits, s.Misses)
	}
	if pg != pg2 {
		t.Error("cache hit returned a different Page object")
	}
}

func TestDirtyWritebackOnFlush(t *testing.T) {
	p, dev := newPager(t, 32, 8, true)
	pg, _ := p.Acquire(3)
	pg.Data()[0] = 99
	p.MarkDirty(pg)
	p.Release(pg)
	if n := p.Stats().Dirty; n != 1 {
		t.Fatalf("dirty count = %d, want 1", n)
	}
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := dev.ReadBlock(3, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 99 {
		t.Errorf("device byte = %d, want 99 after flush", got[0])
	}
	if n := p.Stats().Dirty; n != 0 {
		t.Errorf("dirty count after flush = %d, want 0", n)
	}
}

func TestEvictionWritesDirtyWhenStealAllowed(t *testing.T) {
	p, dev := newPager(t, 256, 64, true) // 4 pages per shard
	// Dirty one page, then fill its shard (same page number mod 16) to
	// force eviction.
	pg, _ := p.Acquire(0)
	pg.Data()[0] = 7
	p.MarkDirty(pg)
	p.Release(pg)
	for i := uint64(1); i <= 8; i++ {
		q, err := p.Acquire(i * 16)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(q)
	}
	got := make([]byte, 512)
	if err := dev.ReadBlock(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Error("dirty page was evicted without writeback")
	}
	if p.Stats().Evictions == 0 {
		t.Error("expected evictions")
	}
}

// TestStealOffKeepsDirtyPageOffDevice: a pager with no chunk appender
// (recovery's replay, the structure layers' own tests) never writes a
// dirty page home by eviction.
func TestStealOffKeepsDirtyPageOffDevice(t *testing.T) {
	p, dev := newPager(t, 256, 64, false)
	pg, _ := p.Acquire(0)
	pg.Data()[0] = 7
	p.MarkDirty(pg)
	p.Release(pg)
	for i := uint64(1); i <= 12; i++ {
		q, err := p.Acquire(i * 16) // same shard as page 0
		if err != nil {
			t.Fatal(err)
		}
		p.Release(q)
	}
	got := make([]byte, 512)
	if err := dev.ReadBlock(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Error("no-steal pager wrote uncommitted dirty page home")
	}
	// The dirty page must still be cached and intact.
	pg2, err := p.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	if pg2.Data()[0] != 7 {
		t.Error("dirty page content lost under no-steal pressure")
	}
	p.Release(pg2)
}

func TestAcquireZeroSkipsRead(t *testing.T) {
	p, dev := newPager(t, 32, 8, true)
	junk := make([]byte, 512)
	for i := range junk {
		junk[i] = 0xFF
	}
	if err := dev.WriteBlock(9, junk); err != nil {
		t.Fatal(err)
	}
	pg, err := p.acquireZero(9)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(pg)
	for i, b := range pg.Data() {
		if b != 0 {
			t.Fatalf("acquireZero data[%d] = %d, want 0", i, b)
		}
	}
}

// TestWithReleasesOnEveryExit: the pin ends when fn returns, whether it
// returns nil, returns an error or panics. Invalidate, which refuses a
// pinned page, succeeding afterwards is the proof.
func TestWithReleasesOnEveryExit(t *testing.T) {
	p, _ := newPager(t, 32, 8, true)
	boom := errors.New("boom")
	exits := map[string]func(*Page) error{
		"nil":   func(*Page) error { return nil },
		"error": func(*Page) error { return boom },
		"panic": func(*Page) error { panic(boom) },
	}
	for name, fn := range exits {
		func() {
			defer func() {
				if r := recover(); r != nil && name != "panic" {
					t.Fatalf("%s: unexpected panic %v", name, r)
				}
			}()
			err := p.With(4, func(pg *Page) error {
				if err := p.Invalidate(4); !errors.Is(err, ErrPinned) {
					t.Errorf("%s: Invalidate inside With = %v, want ErrPinned", name, err)
				}
				return fn(pg)
			})
			if name == "error" && !errors.Is(err, boom) {
				t.Errorf("With returned %v, want fn's error", err)
			}
		}()
		if err := p.Invalidate(4); err != nil {
			t.Errorf("%s exit left the page pinned: Invalidate = %v", name, err)
		}
	}
}

// baseCounter counts the base images the pager appends.
type baseCounter struct{ n int }

func (b *baseCounter) AppendSystem(recs []redo.Record) error {
	for _, r := range recs {
		if r.Kind == redo.KindImage {
			b.n++
		}
	}
	return nil
}
func (b *baseCounter) Wedge() {}

// TestWithZeroFreshPage: WithZero hands fn a zeroed page without reading
// the device, and the page's first edit logs no base image, where the
// same edit on a page pinned by With does.
func TestWithZeroFreshPage(t *testing.T) {
	p, dev := newPager(t, 32, 8, true)
	junk := make([]byte, 512)
	for i := range junk {
		junk[i] = 0xFF
	}
	for _, no := range []uint64{9, 10} {
		if err := dev.WriteBlock(no, junk); err != nil {
			t.Fatal(err)
		}
	}
	bases := &baseCounter{}
	p.EnableBaseImages(bases)
	op := p.NewOp(nil)
	edit := func(pg *Page) error {
		pg.Data()[0] = 1
		p.MarkDirtyRec(pg, op, redo.KindRange, redo.EncodeRange(0, []byte{1}))
		return nil
	}
	if err := p.WithZero(9, func(pg *Page) error {
		for i, b := range pg.Data() {
			if b != 0 {
				t.Fatalf("WithZero data[%d] = %d, want 0", i, b)
			}
		}
		return edit(pg)
	}); err != nil {
		t.Fatal(err)
	}
	if bases.n != 0 {
		t.Fatalf("first edit of a WithZero page appended %d base images, want 0", bases.n)
	}
	if err := p.With(10, edit); err != nil {
		t.Fatal(err)
	}
	if bases.n != 1 {
		t.Fatalf("first edit of a With page appended %d base images, want 1", bases.n)
	}
}

func TestAcquireOutOfRange(t *testing.T) {
	p, _ := newPager(t, 8, 8, true)
	if _, err := p.Acquire(100); !errors.Is(err, ErrBadPage) {
		t.Errorf("Acquire(100) = %v, want ErrBadPage", err)
	}
}

func TestInvalidate(t *testing.T) {
	p, dev := newPager(t, 8, 8, true)
	pg, _ := p.Acquire(2)
	pg.Data()[0] = 5
	p.MarkDirty(pg)
	if err := p.Invalidate(2); !errors.Is(err, ErrPinned) {
		t.Errorf("Invalidate pinned = %v, want ErrPinned", err)
	}
	p.Release(pg)
	if err := p.Invalidate(2); err != nil {
		t.Fatalf("Invalidate: %v", err)
	}
	// Page gone: contents must not reach the device via Flush.
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := dev.ReadBlock(2, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Error("invalidated dirty page leaked to device")
	}
	// Invalidate of uncached page is a no-op.
	if err := p.Invalidate(7); err != nil {
		t.Errorf("Invalidate uncached: %v", err)
	}
}

func TestPinnedPagesSurviveCachePressure(t *testing.T) {
	p, _ := newPager(t, 256, 64, true) // 4 pages per shard
	var pinned []*Page
	for i := uint64(0); i < 4; i++ {
		pg, err := p.Acquire(i * 16) // all in shard 0
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[0] = byte(i + 1)
		pinned = append(pinned, pg)
	}
	// Shard is full of pins; further acquires grow past capacity but work.
	extra, err := p.Acquire(128) // shard 0 again
	if err != nil {
		t.Fatalf("Acquire past pinned capacity: %v", err)
	}
	p.Release(extra)
	for i, pg := range pinned {
		if pg.Data()[0] != byte(i+1) {
			t.Errorf("pinned page %d content lost", i)
		}
		p.Release(pg)
	}
}

// TestEvictionIsLeastRecentlyReleased: a full shard evicts the unpinned
// page released longest ago, a hit moves a page to the front, and a pinned
// page is passed over.
func TestEvictionIsLeastRecentlyReleased(t *testing.T) {
	p, _ := newPager(t, 256, 64, true) // 4 pages per shard
	touch := func(no uint64) {
		t.Helper()
		if err := p.With(no, func(*Page) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for _, no := range []uint64{0, 16, 32, 48} { // all in shard 0
		touch(no)
	}
	touch(0) // a hit: 16 is now the least recently released
	err := p.With(32, func(*Page) error {
		touch(64) // evicts 16
		touch(80) // evicts 48: 32 is pinned
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	touch(96) // evicts 0: 32's release made it the most recent
	var resident []uint64
	for _, no := range []uint64{0, 16, 32, 48, 64, 80, 96} {
		if _, ok := p.shards[0].table[no]; ok {
			resident = append(resident, no)
		}
	}
	if want := []uint64{32, 64, 80, 96}; !reflect.DeepEqual(resident, want) {
		t.Errorf("resident pages %v, want %v", resident, want)
	}
	if s := p.Stats(); s.Evictions != 3 || s.Hits != 2 {
		t.Errorf("evictions=%d hits=%d, want 3/2", s.Evictions, s.Hits)
	}
}

func TestReleasePanicsOnDoubleRelease(t *testing.T) {
	p, _ := newPager(t, 8, 8, true)
	pg, _ := p.Acquire(0)
	p.Release(pg)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	p.Release(pg)
}

func TestSyncFlushes(t *testing.T) {
	p, dev := newPager(t, 8, 8, true)
	pg, _ := p.Acquire(1)
	pg.Data()[0] = 42
	p.MarkDirty(pg)
	p.Release(pg)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := dev.ReadBlock(1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Error("Sync did not flush dirty page")
	}
}

// gateDevice wraps a device and parks ReadBlock calls on a gate channel,
// widening the miss→fill window so tests can provoke the concurrent
// acquire race deterministically.
type gateDevice struct {
	blockdev.Device
	gate chan struct{} // each ReadBlock receives once before proceeding
}

func (d *gateDevice) ReadBlock(n uint64, p []byte) error {
	<-d.gate
	return d.Device.ReadBlock(n, p)
}

// TestAcquireMissRaceWaitsForFill pins the fix for the read race: a page
// was published in the shard table before ReadBlock filled it, so a
// concurrent Acquire could pin and read garbage. With the I/O latch the
// second acquirer must observe the fully filled page.
func TestAcquireMissRaceWaitsForFill(t *testing.T) {
	mem := blockdev.NewMem(32, 512)
	want := make([]byte, 512)
	for i := range want {
		want[i] = 0xAB
	}
	if err := mem.WriteBlock(4, want); err != nil {
		t.Fatal(err)
	}
	gd := &gateDevice{Device: mem, gate: make(chan struct{}, 32)}
	p := New(gd, 64, true)

	started := make(chan struct{})
	type res struct {
		pg  *Page
		err error
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			started <- struct{}{}
			pg, err := p.Acquire(4)
			results <- res{pg, err}
		}()
	}
	<-started
	<-started
	// Both goroutines are at (or before) the gated read; exactly one owns
	// the fill. Release one read; the latch must make the other acquirer
	// wait for it rather than read the zero-filled buffer.
	gd.gate <- struct{}{}
	gd.gate <- struct{}{} // harmless if the waiter takes the hit path
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("Acquire: %v", r.err)
		}
		for j, b := range r.pg.Data() {
			if b != 0xAB {
				t.Fatalf("acquirer %d saw unfilled byte %d at %d", i, b, j)
			}
		}
		p.Release(r.pg)
	}
}

// TestAcquireFailedReadLeavesCleanState pins the error-path fix: a failed
// ReadBlock must fully withdraw the page — no capacity leak, no orphaned
// pin — and later acquires of the same and other pages must work.
func TestAcquireFailedReadLeavesCleanState(t *testing.T) {
	mem := blockdev.NewMem(256, 512)
	fd := blockdev.NewFault(mem)
	p := New(fd, 64, true) // 4 pages per shard

	// Trip the device so reads fail (FaultDevice fails reads only once a
	// write fault has fired).
	fd.SetFailReads(true)
	fd.FailAfterWrites(0)
	junk := make([]byte, 512)
	if err := fd.WriteBlock(0, junk); err == nil {
		t.Fatal("fault did not arm")
	}
	for i := uint64(0); i < 8; i++ {
		if _, err := p.Acquire(i * 16); err == nil { // all shard 0
			t.Fatalf("Acquire(%d) succeeded on dead device", i*16)
		}
	}
	if got := p.Stats().Cached; got != 0 {
		t.Fatalf("failed reads left %d pages cached", got)
	}

	fd.Disarm()
	// The shard must still hold its full capacity: fill it to the brim and
	// verify every page round-trips (a capacity leak would evict early or
	// grow the table with ghosts).
	var pages []*Page
	for i := uint64(0); i < 4; i++ {
		pg, err := p.Acquire(i * 16)
		if err != nil {
			t.Fatalf("Acquire after recovery: %v", err)
		}
		pages = append(pages, pg)
	}
	for _, pg := range pages {
		p.Release(pg)
	}
	if got := p.Stats().Cached; got != 4 {
		t.Errorf("cached = %d, want 4", got)
	}
}

// TestAcquireFailedReadWithWaiter: a waiter parked on the I/O latch while
// the fill fails must not end up pinning a withdrawn page; it retries and
// reports its own device error.
func TestAcquireFailedReadWithWaiter(t *testing.T) {
	mem := blockdev.NewMem(32, 512)
	fd := blockdev.NewFault(mem)
	gd := &gateDevice{Device: fd, gate: make(chan struct{}, 8)}
	p := New(gd, 64, true)

	fd.SetFailReads(true)
	fd.FailAfterWrites(0)
	if err := fd.WriteBlock(0, make([]byte, 512)); err == nil {
		t.Fatal("fault did not arm")
	}

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := p.Acquire(7)
			errs <- err
		}()
	}
	gd.gate <- struct{}{}
	gd.gate <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, blockdev.ErrInjected) {
			t.Errorf("waiter error = %v, want ErrInjected", err)
		}
	}
	if got := p.Stats().Cached; got != 0 {
		t.Errorf("cached = %d after failed fills, want 0", got)
	}
}

func TestConcurrentAcquireRelease(t *testing.T) {
	p, _ := newPager(t, 256, 32, true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				no := uint64((w*31 + i) % 256)
				pg, err := p.Acquire(no)
				if err != nil {
					t.Errorf("Acquire(%d): %v", no, err)
					return
				}
				p.Release(pg)
			}
		}(w)
	}
	wg.Wait()
	s := p.Stats()
	if s.Hits+s.Misses != 8*200 {
		t.Errorf("hits+misses = %d, want %d", s.Hits+s.Misses, 8*200)
	}
}

// TestMarkDirtyRecStampsAndAttributes: MarkDirtyRec stamps monotonically
// increasing LSNs under the page latch, updates the pageLSN, and stages
// the record into exactly the mutator's op.
func TestMarkDirtyRecStampsAndAttributes(t *testing.T) {
	p, _ := newPager(t, 64, 64, false)
	pg, err := p.Acquire(1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(pg)

	op1 := p.NewOp(nil)
	op2 := p.NewOp(nil)
	p.MarkDirtyRec(pg, op1, redo.KindRange, redo.EncodeRange(0, []byte("a")))
	first := pg.LSN()
	p.MarkDirtyRec(pg, op2, redo.KindRange, redo.EncodeRange(0, []byte("b")))
	second := pg.LSN()
	if first == 0 || second <= first {
		t.Fatalf("pageLSN not monotone: %d then %d", first, second)
	}
	r1, r2 := op1.Records(), op2.Records()
	if len(r1) != 1 || len(r2) != 1 {
		t.Fatalf("record attribution: op1=%d op2=%d records", len(r1), len(r2))
	}
	if r1[0].LSN != first || r2[0].LSN != second {
		t.Fatalf("record LSNs %d/%d, want %d/%d", r1[0].LSN, r2[0].LSN, first, second)
	}
	if r1[0].Page != 1 || r2[0].Page != 1 {
		t.Fatalf("record pages %d/%d", r1[0].Page, r2[0].Page)
	}
}

// TestMarkDirtyRecOrderPreserved: an op's staged records keep staging
// (= LSN) order, so replay applies a page's edits in the order the
// bytes actually changed. (The retired MarkDirtyImage route — whole-page
// captures for extent trees — is gone; every structure layer now stages
// typed or byte-range records through MarkDirtyRec.)
func TestMarkDirtyRecOrderPreserved(t *testing.T) {
	p, _ := newPager(t, 64, 64, false)
	pg, err := p.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(pg)

	op := p.NewOp(nil)
	p.MarkDirtyRec(pg, op, redo.KindRange, redo.EncodeRange(0, []byte{0xAA}))
	p.MarkDirtyRec(pg, op, redo.KindRange, redo.EncodeRange(0, []byte{0xBB}))
	recs := op.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].LSN >= recs[1].LSN {
		t.Fatalf("staged records out of LSN order: %d then %d", recs[0].LSN, recs[1].LSN)
	}
	if recs[1].Data[4] != 0xBB {
		t.Fatalf("freshest record holds %#x, want 0xBB", recs[1].Data[4])
	}
}

// chunkLog is a ChunkAppender that keeps what it is given.
type chunkLog struct {
	mu   sync.Mutex
	recs []redo.Record
}

func (c *chunkLog) AppendChunk(prev uint64, recs []redo.Record) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, recs...)
	return uint64(len(c.recs)), nil
}

func (c *chunkLog) Sync() error { return nil }

// TestAfterFollowsOpenOpsOnly: the op that last built on a block is a
// flush dependency of the next one, whoever holds the structure in
// between, and FinishOp forgets it, so no finished op stays reachable
// from the pager and a later op depends on nothing.
func TestAfterFollowsOpenOpsOnly(t *testing.T) {
	p, _ := newPager(t, 64, 64, true)
	log := &chunkLog{}
	p.EnableSteal(log)
	pg, err := p.Acquire(3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(pg)

	a, b := p.NewOp(nil), p.NewOp(nil)
	p.After(9, a)
	p.MarkDirtyRec(pg, a, redo.KindRange, redo.EncodeRange(0, []byte("a")))
	lsn := pg.LSN()
	p.After(9, b)
	p.After(9, b)
	p.FlushOpDeps(b)
	if len(log.recs) != 1 || log.recs[0].LSN != lsn {
		t.Fatalf("b's dependency flush logged %d records, want a's one", len(log.recs))
	}
	p.FinishOp(a, true)
	p.FinishOp(b, true)
	if n := len(p.after); n != 0 {
		t.Fatalf("%d entries outlive their ops", n)
	}
	c := p.NewOp(nil)
	p.After(9, c)
	if len(c.deps) != 0 {
		t.Fatalf("c depends on %d finished ops", len(c.deps))
	}
	p.FinishOp(c, false)
}
