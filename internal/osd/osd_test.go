package osd

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/extent"
	"repro/internal/pager"
)

type env struct {
	dev *blockdev.MemDevice
	pg  *pager.Pager
	ba  *buddy.Allocator
}

func newEnv(t *testing.T) *env {
	t.Helper()
	dev := blockdev.NewMem(16384, blockdev.DefaultBlockSize)
	return &env{dev: dev, pg: pager.New(dev, 512, true), ba: buddy.New(1, 16383)}
}

func newStore(t *testing.T, opts Options) (*Store, *env) {
	t.Helper()
	e := newEnv(t)
	s, err := Create(e.pg, e.ba, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return s, e
}

func TestCreateObjectAssignsUniqueOIDs(t *testing.T) {
	s, _ := newStore(t, Options{})
	seen := map[OID]bool{}
	for i := 0; i < 100; i++ {
		obj, err := s.CreateObject("margo", ModeRegular|0o644)
		if err != nil {
			t.Fatalf("CreateObject: %v", err)
		}
		if seen[obj.OID()] {
			t.Fatalf("duplicate OID %d", obj.OID())
		}
		seen[obj.OID()] = true
		if err := obj.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Objects; got != 100 {
		t.Errorf("Objects = %d, want 100", got)
	}
}

func TestObjectReadWrite(t *testing.T) {
	s, _ := newStore(t, Options{})
	obj, err := s.CreateObject("nick", ModeRegular|0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("hfad"), 1000)
	if err := obj.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if obj.Size() != 4000 {
		t.Errorf("Size = %d", obj.Size())
	}
	got := make([]byte, 4000)
	if _, err := obj.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	m, err := obj.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if m.Size != 4000 || m.Owner != "nick" {
		t.Errorf("meta = %+v", m)
	}
}

func TestInsertAndTruncateRange(t *testing.T) {
	s, _ := newStore(t, Options{})
	obj, err := s.CreateObject("u", ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.WriteAt([]byte("hello world"), 0); err != nil {
		t.Fatal(err)
	}
	if err := obj.InsertAt(5, []byte(" brave")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, obj.Size())
	if _, err := obj.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if string(got) != "hello brave world" {
		t.Errorf("after insert: %q", got)
	}
	if err := obj.TruncateRange(5, 6); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, obj.Size())
	if _, err := obj.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Errorf("after truncate-range: %q", got)
	}
}

func TestMtimeAdvancesOnWrite(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s, _ := newStore(t, Options{Clock: clock})
	obj, err := s.CreateObject("u", ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := obj.Stat()
	now = now.Add(5 * time.Second)
	if err := obj.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	m2, _ := obj.Stat()
	if m2.Mtime <= m1.Mtime {
		t.Errorf("mtime did not advance: %d -> %d", m1.Mtime, m2.Mtime)
	}
}

func TestStatMissing(t *testing.T) {
	s, _ := newStore(t, Options{})
	if _, err := s.Stat(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("Stat(999) = %v, want ErrNotFound", err)
	}
	if _, err := s.OpenObject(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("OpenObject(999) = %v, want ErrNotFound", err)
	}
}

func TestOpenObjectSharesState(t *testing.T) {
	s, _ := newStore(t, Options{})
	obj, err := s.CreateObject("u", ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	oid := obj.OID()
	h2, err := s.OpenObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != obj {
		t.Error("second handle is not the shared object")
	}
	if err := obj.WriteAt([]byte("shared"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if _, err := h2.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if string(got) != "shared" {
		t.Errorf("second handle read %q", got)
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen after full close works.
	h3, err := s.OpenObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	if h3.Size() != 6 {
		t.Errorf("reopened size = %d", h3.Size())
	}
}

func TestDeleteObjectFreesStorage(t *testing.T) {
	s, e := newStore(t, Options{})
	free0 := e.ba.FreeBlocks()
	obj, err := s.CreateObject("u", ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.WriteAt(bytes.Repeat([]byte("z"), 200000), 0); err != nil {
		t.Fatal(err)
	}
	oid := obj.OID()
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteObject(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat(oid); !errors.Is(err, ErrNotFound) {
		t.Error("deleted object still stats")
	}
	// All extent blocks must return (the object table itself keeps a
	// few pages).
	leaked := free0 - e.ba.FreeBlocks()
	if leaked > 8 {
		t.Errorf("delete leaked %d blocks", leaked)
	}
}

func TestUpdateMetaFields(t *testing.T) {
	s, _ := newStore(t, Options{})
	obj, err := s.CreateObject("alice", ModeRegular|0o600)
	if err != nil {
		t.Fatal(err)
	}
	oid := obj.OID()
	if err := s.SetMode(oid, ModeRegular|0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.SetOwner(oid, "bob"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTimes(oid, 111, 222); err != nil {
		t.Fatal(err)
	}
	m, err := s.Stat(oid)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode != ModeRegular|0o755 || m.Owner != "bob" || m.Atime != 111 || m.Mtime != 222 {
		t.Errorf("meta = %+v", m)
	}
}

// TestRowHoldsTheRoot: an object's row holds its extent root and so its
// size. Past extent.R extents the root's cells move into pages below the
// row, every one naming the object; a handle opened from the row alone
// reads the same bytes.
func TestRowHoldsTheRoot(t *testing.T) {
	s, _ := newStore(t, Options{ExtentConfig: extent.Config{MaxExtentBytes: 4096}})
	obj, err := s.CreateObject("carol", ModeRegular|0o644)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 300; i++ { // past one leaf page
		p := bytes.Repeat([]byte{byte(i)}, 4096)
		if err := obj.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p...)
	}
	res, err := obj.ExtentTree().Check() // every page names the object
	if err != nil {
		t.Fatal(err)
	}
	m, err := obj.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages < 2 || m.Root != obj.ExtentTree().Root() || m.Size != uint64(len(want)) {
		t.Fatalf("%d pages below a row of %d bytes; the row's root matches the tree's: %v",
			res.Pages, m.Size, m.Root == obj.ExtentTree().Root())
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	obj, err = s.OpenObject(m.OID)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	got := make([]byte, len(want))
	if _, err := obj.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reopened from its row, the object reads other bytes")
	}
}

// TestSmallObjectTakesNoPage: creating an object and appending 2 KB
// allocates only the data run, no extent page, and reads nothing.
func TestSmallObjectTakesNoPage(t *testing.T) {
	mem := blockdev.NewMem(16384, blockdev.DefaultBlockSize)
	dev := blockdev.NewSim(mem, blockdev.NullModel{})
	pg := pager.New(dev, 512, true)
	ba := buddy.New(1, 16383)
	s, err := Create(pg, ba, Options{})
	if err != nil {
		t.Fatal(err)
	}
	free, reads := ba.FreeBlocks(), dev.Stats().Reads
	obj, err := s.CreateObject("dora", ModeRegular|0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	if err := obj.Append(bytes.Repeat([]byte("x"), 2048)); err != nil {
		t.Fatal(err)
	}
	if used := free - ba.FreeBlocks(); used != 1 {
		t.Errorf("a new 2 KB object took %d blocks, want 1: its data run", used)
	}
	if n := dev.Stats().Reads - reads; n != 0 {
		t.Errorf("creating and filling a 2 KB object read %d blocks, want 0", n)
	}
	if res, err := obj.ExtentTree().Check(); err != nil || res.Pages != 0 {
		t.Errorf("the object has %d extent pages (%v), want 0", res.Pages, err)
	}
}

func TestForEachOrdered(t *testing.T) {
	s, _ := newStore(t, Options{})
	for i := 0; i < 10; i++ {
		obj, err := s.CreateObject("u", ModeRegular)
		if err != nil {
			t.Fatal(err)
		}
		obj.Close()
	}
	var oids []OID
	if err := s.ForEach(func(m Meta) bool {
		oids = append(oids, m.OID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(oids) != 10 {
		t.Fatalf("ForEach visited %d, want 10", len(oids))
	}
	for i := 1; i < len(oids); i++ {
		if oids[i] <= oids[i-1] {
			t.Fatal("ForEach not in OID order")
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	e := newEnv(t)
	s, err := Create(e.pg, e.ba, Options{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.CreateObject("dave", ModeRegular|0o644)
	if err != nil {
		t.Fatal(err)
	}
	oid := obj.OID()
	if err := obj.WriteAt([]byte("durable bytes"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	pg2 := pager.New(e.dev, 256, true)
	s2, err := Open(pg2, e.ba, s.HeaderPage(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	obj2, err := s2.OpenObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 13)
	if _, err := obj2.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if string(got) != "durable bytes" {
		t.Errorf("reopened read %q", got)
	}
	// New objects must not collide with pre-restart OIDs.
	obj3, err := s2.CreateObject("u", ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	if obj3.OID() <= oid {
		t.Errorf("OID sequence regressed: %d after %d", obj3.OID(), oid)
	}
}

func TestCommitHookFires(t *testing.T) {
	commits := 0
	s, _ := newStore(t, Options{Begin: func(fn func(*pager.Op) error) error {
		err := fn(nil)
		commits++
		return err
	}})
	obj, err := s.CreateObject("u", ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	if commits == 0 {
		t.Fatal("no commit after create")
	}
	base := commits
	if err := obj.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if commits <= base {
		t.Error("no commit after write")
	}
	if got := s.Stats().Commits; int(got) != commits {
		t.Errorf("Stats.Commits = %d, hook ran %d times", got, commits)
	}
}

func TestStatsCounters(t *testing.T) {
	s, _ := newStore(t, Options{})
	obj, _ := s.CreateObject("u", ModeRegular)
	_ = obj.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 3)
	_, _ = obj.ReadAt(buf, 0)
	_ = obj.InsertAt(1, []byte("z"))
	_ = obj.TruncateRange(0, 1)
	st := s.Stats()
	if st.Creates != 1 || st.Writes != 1 || st.Reads != 1 || st.Inserts != 1 || st.DeleteRanges != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSparseObject(t *testing.T) {
	s, _ := newStore(t, Options{})
	obj, err := s.CreateObject("u", ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.WriteAt([]byte("end"), 1<<20); err != nil {
		t.Fatal(err)
	}
	if obj.Size() != 1<<20+3 {
		t.Errorf("Size = %d", obj.Size())
	}
	buf := make([]byte, 10)
	if _, err := obj.ReadAt(buf, 512); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
}

// TestConcurrentAppendsResolveDistinctOffsets: concurrent Appends to one
// object must each land at a distinct end offset. The append offset is
// resolved inside the extent tree's lock (extent.Tree.AppendOp);
// resolving it with a separate Size() call lets two appenders pick the
// same offset, and one acked write overwrites the other.
func TestConcurrentAppendsResolveDistinctOffsets(t *testing.T) {
	// Force real interleaving even on single-core runners — with
	// GOMAXPROCS=1 the stale-offset window essentially never splits
	// across a preemption and the race goes undetected.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	s, _ := newStore(t, Options{})
	obj, err := s.CreateObject("hot", ModeRegular|0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()

	const writers = 8
	const perWriter = 200
	const chunk = 32
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := make([]byte, chunk)
			for i := range payload {
				payload[i] = byte(w + 1)
			}
			for i := 0; i < perWriter; i++ {
				if err := obj.Append(payload); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	checkAppendsLanded(t, obj, writers, perWriter, chunk)
}

// checkAppendsLanded verifies that writers each appended perWriter chunks
// of chunk bytes filled with their 1-based index: no lost update, no torn
// chunk, and an extent tree that passes its own check.
func checkAppendsLanded(t *testing.T, obj *Object, writers, perWriter, chunk int) {
	t.Helper()
	want := writers * perWriter * chunk
	if got := obj.Size(); got != uint64(want) {
		t.Fatalf("size = %d, want %d (lost update)", got, want)
	}
	buf := make([]byte, want)
	if _, err := obj.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	counts := make(map[byte]int)
	for off := 0; off < want; off += chunk {
		fill := buf[off]
		for _, b := range buf[off : off+chunk] {
			if b != fill {
				t.Fatalf("torn append at offset %d", off)
			}
		}
		counts[fill]++
	}
	for w := 0; w < writers; w++ {
		if got := counts[byte(w+1)]; got != perWriter {
			t.Fatalf("writer %d: %d of %d appends survived", w, got, perWriter)
		}
	}
	if _, err := obj.ExtentTree().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendsThroughShortLivedHandles: concurrent writers that each open
// a handle, append once and close it — a server's per-request pattern —
// must all land. When the last handle closes, the next OpenObject loads
// the tree from its header page; loading it outside the open-table lock
// let a handle opened, appended through and closed in that window go
// unseen, so the newly published handle carried a stale size (a lost
// update) and a stale root (a corrupt extent tree).
func TestAppendsThroughShortLivedHandles(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	s, _ := newStore(t, Options{})
	obj, err := s.CreateObject("hot", ModeRegular|0o644)
	if err != nil {
		t.Fatal(err)
	}
	oid := obj.OID()
	obj.Close()

	const writers, readers = 2, 8
	const perWriter = 16000
	const chunk = 32
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	// Readers churn handles on another object, as a server's reads do, so
	// an opener of the hot one often waits for the open-table lock.
	cold, err := s.CreateObject("cold", ModeRegular|0o644)
	if err != nil {
		t.Fatal(err)
	}
	coldOID := cold.OID()
	cold.Close()
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			buf := make([]byte, chunk)
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := s.OpenObject(coldOID)
				if err != nil {
					errs <- err
					return
				}
				_, _ = h.ReadAt(buf, 0)
				h.Close()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w + 1)}, chunk)
			for i := 0; i < perWriter; i++ {
				h, err := s.OpenObject(oid)
				if err == nil {
					err = h.Append(payload)
					h.Close()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	obj, err = s.OpenObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	checkAppendsLanded(t, obj, writers, perWriter, chunk)
}
