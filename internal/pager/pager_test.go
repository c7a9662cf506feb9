package pager

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
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
	p, dev := newPager(t, 256, 64, true)
	// Dirty one page, then fill the cache past its capacity to force the
	// page, the oldest and never hit, out.
	pg, _ := p.Acquire(0)
	pg.Data()[0] = 7
	p.MarkDirty(pg)
	p.Release(pg)
	for i := uint64(1); i <= 64; i++ {
		q, err := p.Acquire(i)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(q)
	}
	if _, cached := p.shardOf(0).table[0]; cached {
		t.Fatal("the dirty page is still cached: nothing forced it out")
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
	for i := uint64(1); i <= 128; i++ { // twice the capacity
		q, err := p.Acquire(i)
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
	p, _ := newPager(t, 256, 64, true)
	var pinned []*Page
	for i := uint64(0); i < 64; i++ {
		pg, err := p.Acquire(i)
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[0] = byte(i + 1)
		pinned = append(pinned, pg)
	}
	// The cache is full of pins; further acquires grow past capacity but
	// work.
	extra, err := p.Acquire(128)
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

// queue returns the cached pages in queue order, oldest first, and the
// page the hand looks at next.
func queue(p *Pager) (pages []uint64, hand uint64) {
	p.q.mu.Lock()
	defer p.q.mu.Unlock()
	for pg := p.q.ring.next; pg != &p.q.ring; pg = pg.next {
		pages = append(pages, pg.no)
	}
	h := p.q.hand
	if h == &p.q.ring {
		h = p.q.ring.next
	}
	return pages, h.no
}

// visited reads page no's reference bit.
func visited(p *Pager, no uint64) bool {
	s := p.shardOf(no)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table[no].visited
}

// TestEvictionFollowsSieveHand: a full cache evicts the oldest page that
// has not been hit; a page hit since the hand last passed survives the
// pass with its bit cleared; a pinned page is passed over; and the hand
// goes on from where it stopped, not from the oldest page.
func TestEvictionFollowsSieveHand(t *testing.T) {
	p, _ := newPager(t, 256, 4, true)
	touch := func(no uint64) {
		t.Helper()
		if err := p.With(no, func(*Page) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(step string, want []uint64, hand uint64) {
		t.Helper()
		got, h := queue(p)
		if !reflect.DeepEqual(got, want) || h != hand {
			t.Fatalf("%s: queue %v hand at %d, want %v hand at %d", step, got, h, want, hand)
		}
	}
	for _, no := range []uint64{0, 1, 2, 3} {
		touch(no)
	}
	touch(1) // a hit: only 1's bit changes
	expect("hit", []uint64{0, 1, 2, 3}, 0)

	touch(4) // 0 is the oldest unvisited page
	expect("first miss", []uint64{1, 2, 3, 4}, 1)
	touch(5) // the hand clears 1's bit and takes 2
	expect("pass over a hit page", []uint64{1, 3, 4, 5}, 3)
	if visited(p, 1) {
		t.Fatal("the hand passed page 1 without clearing its bit")
	}

	// 1 is now the oldest page and unvisited, but the hand is past it.
	pinned, err := p.Acquire(6) // a miss: takes 3, and 6 stays pinned
	if err != nil {
		t.Fatal(err)
	}
	expect("pinned miss", []uint64{1, 4, 5, 6}, 4)
	touch(7) // takes 4
	touch(8) // takes 5
	expect("hand keeps its place", []uint64{1, 6, 7, 8}, 6)
	touch(9) // 6 is pinned: the hand passes it and takes 7
	expect("pass over a pinned page", []uint64{1, 6, 8, 9}, 8)
	p.Release(pinned)
	touch(9)  // a hit
	touch(10) // takes 8
	touch(10) // a hit
	// The hand clears 9's and 10's bits, wraps to the oldest page and takes
	// 1, whose bit it cleared a revolution ago.
	touch(11)
	expect("wrap", []uint64{6, 9, 10, 11}, 6)
	touch(12) // 6 is unpinned now
	expect("released", []uint64{9, 10, 11, 12}, 9)
	if s := p.Stats(); s.Evictions != 9 || s.Hits != 3 {
		t.Errorf("evictions=%d hits=%d, want 9/3", s.Evictions, s.Hits)
	}
}

// TestHotSetSurvivesScan: pages hit since the hand's last pass survive a
// one-time scan of four times the capacity, and the scan leaves the rest
// of the cache to itself: every hot page still hits afterwards. An LRU
// order would have pushed every hot page out before the scan was a
// quarter done.
func TestHotSetSurvivesScan(t *testing.T) {
	const capacity, hot = 64, 16
	p, _ := newPager(t, 1024, capacity, true)
	touch := func(no uint64) {
		t.Helper()
		pg, err := p.Acquire(no)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(pg)
	}
	for no := uint64(0); no < capacity; no++ {
		touch(no)
	}
	for no := uint64(0); no < hot; no++ {
		touch(no) // hits
	}
	for no := uint64(capacity); no < 5*capacity; no++ {
		touch(no) // the scan: each page once
	}
	before := p.Stats()
	for no := uint64(0); no < hot; no++ {
		touch(no)
	}
	if misses := p.Stats().Misses - before.Misses; misses != 0 {
		t.Fatalf("%d of %d hot pages were lost to a one-time scan", misses, hot)
	}
}

// TestWriteFreshSurvivesSweep: a page written whole by WriteFresh enters
// as visited, so the hand's first pass over it only clears its bit. A
// page that entered by a miss, and was not hit since, goes at that pass.
func TestWriteFreshSurvivesSweep(t *testing.T) {
	const capacity = 8
	p, _ := newPager(t, 256, capacity, true)
	if err := p.WriteFresh(nil, 0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if err := p.With(16, func(*Page) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Eight more pages fill the cache and make the hand pass page 0, the
	// oldest, and take page 16.
	for i := uint64(2); i < 2+capacity; i++ {
		if err := p.With(16*i, func(*Page) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	s := p.shardOf(0)
	s.mu.Lock()
	_, fresh := s.table[0]
	_, read := s.table[16]
	s.mu.Unlock()
	if !fresh || read {
		t.Fatalf("after one sweep: written page cached %v, read page cached %v; want true, false", fresh, read)
	}
}

// TestMissRecyclesFrame: at capacity, a miss takes the victim's frame for
// the page it admits, so a steady stream of misses allocates far less
// than a block each.
func TestMissRecyclesFrame(t *testing.T) {
	const capacity, misses = 64, 2000
	dev := blockdev.NewMem(4*capacity, blockdev.DefaultBlockSize)
	p := New(dev, capacity, true)
	touch := func(no uint64) {
		pg, err := p.Acquire(no % (4 * capacity)) // a cyclic sweep: every touch misses
		if err != nil {
			t.Fatal(err)
		}
		p.Release(pg)
	}
	for i := uint64(0); i < 8*capacity; i++ {
		touch(i)
	}
	m0 := p.Stats().Misses
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < misses; i++ {
		touch(i)
	}
	runtime.ReadMemStats(&after)
	if n := p.Stats().Misses - m0; n != misses {
		t.Fatalf("%d misses, want %d", n, misses)
	}
	perMiss := (after.TotalAlloc - before.TotalAlloc) / misses
	if perMiss >= blockdev.DefaultBlockSize {
		t.Fatalf("a miss allocates %d bytes, want less than one %d-byte block", perMiss, blockdev.DefaultBlockSize)
	}
	t.Logf("%d bytes allocated per miss", perMiss)
}

// TestUnevictableCacheGrows: when every cached page is pinned or dirty
// without a log to steal behind, a miss finds no victim and the cache
// grows past its capacity, as it must: capacity is advisory. Each such
// miss moves the hand at most one revolution and leaves it where it was.
func TestUnevictableCacheGrows(t *testing.T) {
	const capacity = 8
	p, _ := newPager(t, 256, capacity, false) // no steal appender: dirty pages stay
	var pinned []*Page
	for no := uint64(0); no < capacity; no++ {
		pg, err := p.Acquire(no)
		if err != nil {
			t.Fatal(err)
		}
		if no%2 == 0 {
			pinned = append(pinned, pg)
			continue
		}
		p.MarkDirty(pg)
		p.Release(pg)
	}
	for no := uint64(capacity); no < 4*capacity; no++ {
		p.q.mu.Lock()
		n, steps := p.q.n, p.q.steps
		p.q.mu.Unlock()
		_, hand := queue(p)
		pg, err := p.Acquire(no)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, pg)
		p.q.mu.Lock()
		moved := p.q.steps - steps
		p.q.mu.Unlock()
		if moved > int64(n)+1 {
			t.Fatalf("a miss over %d unevictable pages moved the hand %d times, want at most %d", n, moved, n+1)
		}
		if _, h := queue(p); h != hand {
			t.Fatalf("a miss that evicted nothing moved the hand from page %d to %d", hand, h)
		}
	}
	if s := p.Stats(); s.Cached != 4*capacity || s.Evictions != 0 {
		t.Fatalf("cached=%d evictions=%d, want %d/0", s.Cached, s.Evictions, 4*capacity)
	}
	for _, pg := range pinned {
		p.Release(pg)
	}
	// With the pins gone the next miss evicts until the cache is below
	// capacity again; the dirty pages stay.
	if err := p.With(255, func(*Page) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Cached != capacity || s.Dirty != capacity/2 {
		t.Fatalf("after release: cached=%d dirty=%d, want %d/%d", s.Cached, s.Dirty, capacity, capacity/2)
	}
}

// checkQueue holds the queue mutex and every shard latch and checks that
// each cached page is in the queue exactly once, that the queue holds
// nothing else, and that the cache holds at most maxPages.
func checkQueue(t *testing.T, p *Pager, maxPages int) {
	t.Helper()
	p.q.mu.Lock()
	defer p.q.mu.Unlock()
	for i := range p.shards {
		p.shards[i].mu.Lock()
		defer p.shards[i].mu.Unlock()
	}
	inQueue := make(map[*Page]int)
	for pg := p.q.ring.next; pg != &p.q.ring; pg = pg.next {
		if pg.next.prev != pg {
			t.Errorf("queue links broken at page %d", pg.no)
			return
		}
		inQueue[pg]++
	}
	cached := 0
	for i := range p.shards {
		for no, pg := range p.shards[i].table {
			cached++
			if pg.no != no || inQueue[pg] != 1 {
				t.Errorf("page %d is in the queue %d times", no, inQueue[pg])
			}
		}
	}
	if len(inQueue) != cached || p.q.n != cached {
		t.Errorf("queue holds %d pages and counts %d; the page tables hold %d", len(inQueue), p.q.n, cached)
	}
	if cached > maxPages {
		t.Errorf("%d pages cached, want at most %d", cached, maxPages)
	}
}

// TestSieveConcurrentMisses: workers miss, hit and invalidate pages
// across all shards of a small cache at once, holding up to two pins
// each, and rewrite pages of their own whole (WriteFresh is for a page
// no one else can reach). Every page they see holds its block's bytes, so
// no recycled frame is reused under a pin; the queue holds every cached
// page exactly once; and the cache grows past its capacity by no more
// than the pages pinned at once.
func TestSieveConcurrentMisses(t *testing.T) {
	const capacity, shared, own, workers, ops, maxPins = 64, 448, 8, 8, 3000, 2
	const blocks = shared + workers*own
	dev := blockdev.NewMem(blocks, 512)
	content := func(no uint64) []byte {
		b := make([]byte, 512)
		for i := range b {
			b[i] = byte(no*7 + uint64(i)/64)
		}
		return b
	}
	for no := uint64(0); no < blocks; no++ {
		if err := dev.WriteBlock(no, content(no)); err != nil {
			t.Fatal(err)
		}
	}
	p := New(dev, capacity, true)
	check := func(pg *Page) error {
		if !bytes.Equal(pg.Data(), content(pg.No())) {
			return fmt.Errorf("page %d does not hold its block's bytes", pg.No())
		}
		return nil
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for {
			select {
			case <-stop:
				return
			default:
				checkQueue(t, p, capacity+workers*maxPins)
				runtime.Gosched()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; i < ops; i++ {
				r := next()
				no := r % shared
				var err error
				switch r >> 60 {
				case 0:
					mine := shared + uint64(w)*own + r%own
					err = p.WriteFresh(nil, mine, content(mine))
					if err == nil {
						err = p.With(mine, check)
					}
				case 1:
					if err = p.Invalidate(no); errors.Is(err, ErrPinned) {
						err = nil
					}
				case 2, 3:
					err = p.With(no, func(pg *Page) error {
						if err := check(pg); err != nil {
							return err
						}
						return p.With(next()%shared, check)
					})
				default:
					err = p.With(no%(capacity/2), check) // a hot set that mostly hits
					if err == nil {
						err = p.With(no, check)
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-checked
	if err := p.With(blocks-1, check); err != nil {
		t.Fatal(err)
	}
	checkQueue(t, p, capacity)
	for i := range p.shards {
		for _, pg := range p.shards[i].table {
			if err := check(pg); err != nil {
				t.Error(err)
			}
		}
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
	p := New(fd, 64, true)

	// Trip the device so reads fail (FaultDevice fails reads only once a
	// write fault has fired).
	fd.SetFailReads(true)
	fd.FailAfterWrites(0)
	junk := make([]byte, 512)
	if err := fd.WriteBlock(0, junk); err == nil {
		t.Fatal("fault did not arm")
	}
	for i := uint64(0); i < 8; i++ {
		if _, err := p.Acquire(i); err == nil {
			t.Fatalf("Acquire(%d) succeeded on dead device", i)
		}
	}
	if got := p.Stats().Cached; got != 0 {
		t.Fatalf("failed reads left %d pages cached", got)
	}

	fd.Disarm()
	// The cache must still hold its full capacity: fill it to the brim and
	// verify every page round-trips (a capacity leak would evict early or
	// grow the table with ghosts).
	var pages []*Page
	for i := uint64(0); i < 64; i++ {
		pg, err := p.Acquire(i)
		if err != nil {
			t.Fatalf("Acquire after recovery: %v", err)
		}
		pages = append(pages, pg)
	}
	for _, pg := range pages {
		p.Release(pg)
	}
	if s := p.Stats(); s.Cached != 64 || s.Evictions != 0 {
		t.Errorf("cached=%d evictions=%d, want 64/0", s.Cached, s.Evictions)
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
	first := pg.lsn.Load()
	p.MarkDirtyRec(pg, op2, redo.KindRange, redo.EncodeRange(0, []byte("b")))
	second := pg.lsn.Load()
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
	lsn := pg.lsn.Load()
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
