package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/btree"
	"repro/internal/extent"
	"repro/internal/index"
	"repro/internal/osd"
)

func newTxnVolume(t *testing.T, opts Options) (*Volume, *blockdev.MemDevice) {
	t.Helper()
	dev := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v, dev
}

// TestBatchComposesOneCommit: a batch of create+append+tag+index work
// must commit as ONE WAL transaction, and everything in it must be
// queryable afterwards.
func TestBatchComposesOneCommit(t *testing.T) {
	v, _ := newTxnVolume(t, Options{})
	defer v.Close()

	before := v.WAL().Stats().Commits
	var oids []OID
	err := v.Batch(func(b *Batch) error {
		for i := 0; i < 10; i++ {
			obj, err := b.CreateObject("batcher")
			if err != nil {
				return err
			}
			if err := b.Append(obj, []byte(fmt.Sprintf("payload %d with words w%d", i, i))); err != nil {
				return err
			}
			if err := b.Tag(obj.OID(), index.TagUDef, "batched"); err != nil {
				return err
			}
			if err := b.Tag(obj.OID(), index.TagUser, "batcher"); err != nil {
				return err
			}
			if err := b.IndexContent(obj.OID()); err != nil {
				return err
			}
			oids = append(oids, obj.OID())
			obj.Close()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if got := v.WAL().Stats().Commits - before; got != 1 {
		t.Errorf("batch produced %d WAL commits, want 1", got)
	}
	ids, err := v.Resolve(TagValue{index.TagUDef, []byte("batched")}, TagValue{index.TagUser, []byte("batcher")})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("resolved %d objects, want 10", len(ids))
	}
	// Full-text from inside the batch is searchable too.
	ids, err = v.Resolve(TagValue{index.TagFulltext, []byte("w3")})
	if err != nil || len(ids) != 1 {
		t.Fatalf("fulltext resolve = %v, %v", ids, err)
	}
	// Names round-trip through the reverse index.
	names, err := v.Names(oids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 { // UDEF, USER, FULLTEXT
		t.Errorf("Names = %v, want 3 entries", names)
	}
}

// TestBatchErrorSkipsBufferedTags: fn returning an error must surface
// that error, skip the buffered tag multi-puts, and roll the batch
// back — mutations fn already applied are undone via their captured
// inverses, so the failed batch leaves no trace.
func TestBatchErrorSkipsBufferedTags(t *testing.T) {
	v, _ := newTxnVolume(t, Options{})
	defer v.Close()
	wantErr := fmt.Errorf("boom")
	var oid OID
	err := v.Batch(func(b *Batch) error {
		obj, err := b.CreateObject("doomed")
		if err != nil {
			return err
		}
		oid = obj.OID()
		obj.Close()
		if err := b.Tag(oid, index.TagUDef, "never-applied"); err != nil {
			return err
		}
		return wantErr
	})
	if err != wantErr {
		t.Fatalf("Batch error = %v, want boom", err)
	}
	// The buffered tag must not have been applied...
	ids, err := v.Resolve(TagValue{index.TagUDef, []byte("never-applied")})
	if err != nil || len(ids) != 0 {
		t.Fatalf("buffered tag applied despite batch error: %v, %v", ids, err)
	}
	// ...and the created object must have been rolled back with the rest
	// of the failed batch.
	if _, err := v.OSD.Stat(oid); err == nil {
		t.Fatalf("created object survived the aborted batch")
	} else if !errors.Is(err, osd.ErrNotFound) {
		t.Fatalf("Stat after abort = %v, want ErrNotFound", err)
	}
	if rep, err := v.Check(); err != nil {
		t.Fatalf("fsck after aborted batch: %v", err)
	} else if len(rep.Problems) > 0 {
		t.Fatalf("fsck after aborted batch: %v", rep.Problems)
	}
}

// TestBatchCrashRecoversAtomically: a committed batch must survive a
// crash in full — recovery may not resurrect half a batch.
func TestBatchCrashRecoversAtomically(t *testing.T) {
	dev := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(dev, Options{WALBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	var oids []OID
	if err := v.Batch(func(b *Batch) error {
		for i := 0; i < 5; i++ {
			obj, err := b.CreateObject("u")
			if err != nil {
				return err
			}
			if err := b.Tag(obj.OID(), index.TagUDef, fmt.Sprintf("part:%d", i)); err != nil {
				return err
			}
			oids = append(oids, obj.OID())
			obj.Close()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Crash: reopen from the raw image without Close (pages were never
	// forced home — recovery must replay the batch from the log).
	v2, err := Open(dev, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer v2.Close()
	for i, oid := range oids {
		ids, err := v2.Resolve(TagValue{index.TagUDef, []byte(fmt.Sprintf("part:%d", i))})
		if err != nil || len(ids) != 1 || ids[0] != oid {
			t.Fatalf("part %d lost after crash: %v, %v", i, ids, err)
		}
	}
}

// TestConcurrentWritersGroupCommit: independent writers ingesting
// concurrently must all commit durably, and the group committer must
// need no more syncs than commits.
func TestConcurrentWritersGroupCommit(t *testing.T) {
	v, dev := newTxnVolume(t, Options{WALBlocks: 512})
	const writers = 8
	const perWriter = 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				obj, err := v.OSD.CreateObject("w", osd.ModeRegular)
				if err != nil {
					errs <- err
					return
				}
				if err := obj.Append([]byte("concurrent payload")); err != nil {
					errs <- err
					return
				}
				if err := v.AddName(obj.OID(), index.TagUDef, []byte(fmt.Sprintf("w%d:%d", w, i))); err != nil {
					errs <- err
					return
				}
				obj.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ws := v.WAL().Stats()
	if ws.Syncs > ws.Commits {
		t.Errorf("Syncs = %d > Commits = %d", ws.Syncs, ws.Commits)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			ids, err := v2.Resolve(TagValue{index.TagUDef, []byte(fmt.Sprintf("w%d:%d", w, i))})
			if err != nil || len(ids) != 1 {
				t.Fatalf("w%d:%d lost: %v, %v", w, i, ids, err)
			}
		}
	}
}

// TestConcurrentAppendsSameObjectNoLostUpdate: appends to ONE object
// from concurrent batches must each land at a distinct end offset.
// Before extent.Tree.AppendOp, the end offset was read outside the
// write's lock, so two appenders could resolve the same offset and one
// acked write would silently overwrite the other (the hfadd ingest
// workers hit exactly this on zipf-hot OIDs).
func TestConcurrentAppendsSameObjectNoLostUpdate(t *testing.T) {
	// Force real interleaving even on single-core runners (see the osd
	// package's TestConcurrentAppendsResolveDistinctOffsets).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	v, _ := newTxnVolume(t, Options{WALBlocks: 512})
	defer v.Close()

	obj, err := v.OSD.CreateObject("hot", osd.ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	oid := obj.OID()

	const writers = 16
	const perWriter = 50
	const chunk = 64
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	sizes := make(chan uint64, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := make([]byte, chunk)
			for i := range payload {
				payload[i] = byte(w + 1)
			}
			for i := 0; i < perWriter; i++ {
				err := v.Batch(func(b *Batch) error {
					h, err := v.OSD.OpenObject(oid)
					if err != nil {
						return err
					}
					defer h.Close()
					size, err := b.AppendN(h, payload)
					if err == nil {
						sizes <- size
					}
					return err
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	close(sizes)
	for err := range errs {
		t.Fatal(err)
	}

	const want = writers * perWriter * chunk
	if got := obj.Size(); got != want {
		t.Fatalf("object size = %d, want %d (lost update)", got, want)
	}
	// Every AppendN must have reported a distinct end offset.
	seen := make(map[uint64]bool)
	for s := range sizes {
		if seen[s] {
			t.Fatalf("two appends reported the same post-append size %d", s)
		}
		seen[s] = true
	}
	// Every writer's bytes must all be present: chunk-aligned runs, with
	// exactly perWriter runs of each writer's fill byte.
	buf := make([]byte, want)
	if _, err := obj.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	counts := make(map[byte]int)
	for off := 0; off < want; off += chunk {
		fill := buf[off]
		for _, b := range buf[off : off+chunk] {
			if b != fill {
				t.Fatalf("torn append at offset %d: %d vs %d", off, fill, b)
			}
		}
		counts[fill]++
	}
	for w := 0; w < writers; w++ {
		if got := counts[byte(w+1)]; got != perWriter {
			t.Fatalf("writer %d: %d of %d appends survived", w, got, perWriter)
		}
	}
}

// TestHighWaterCheckpointKeepsLogFlowing: with a deliberately tiny log,
// sustained ingest must trigger checkpoints at the high-water mark
// rather than stumbling over ErrFull, and everything stays durable.
func TestHighWaterCheckpointKeepsLogFlowing(t *testing.T) {
	v, dev := newTxnVolume(t, Options{WALBlocks: 64})
	for i := 0; i < 150; i++ {
		obj, err := v.OSD.CreateObject("hw", osd.ModeRegular)
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Append([]byte("high water payload")); err != nil {
			t.Fatal(err)
		}
		if err := v.AddName(obj.OID(), index.TagUDef, []byte(fmt.Sprintf("hw:%d", i))); err != nil {
			t.Fatal(err)
		}
		obj.Close()
	}
	if got := v.WAL().Stats().Checkpoints; got == 0 {
		t.Error("no checkpoint despite sustained ingest against a 64-block log")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	for i := 0; i < 150; i++ {
		ids, err := v2.Resolve(TagValue{index.TagUDef, []byte(fmt.Sprintf("hw:%d", i))})
		if err != nil || len(ids) != 1 {
			t.Fatalf("hw:%d lost: %v, %v", i, ids, err)
		}
	}
}

// TestBatchConcurrentCloseNoDeadlock pins the Batch/Close lock order: a
// Close issued while a batch is running must wait for the batch and then
// proceed — not deadlock (Batch takes the lifecycle lock, then the
// checkpoint fence, the same order Close uses).
func TestBatchConcurrentCloseNoDeadlock(t *testing.T) {
	v, _ := newTxnVolume(t, Options{})
	started := make(chan struct{})
	batchDone := make(chan error, 1)
	closeDone := make(chan error, 1)
	go func() {
		batchDone <- v.Batch(func(b *Batch) error {
			close(started)
			for i := 0; i < 50; i++ {
				obj, err := b.CreateObject("racer")
				if err != nil {
					return err
				}
				if err := b.Tag(obj.OID(), index.TagUDef, fmt.Sprintf("r:%d", i)); err != nil {
					return err
				}
				obj.Close()
			}
			return nil
		})
	}()
	<-started
	go func() { closeDone <- v.Close() }()
	timeout := time.After(10 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-batchDone:
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("batch: %v", err)
			}
		case err := <-closeDone:
			if err != nil {
				t.Fatalf("close: %v", err)
			}
		case <-timeout:
			t.Fatal("Batch/Close deadlocked")
		}
	}
}

// TestDirtyHighWaterTriggersCheckpoint: with a log far larger than the
// cache, sustained ingest must not let dirty pages grow with the log
// instead of CachePages. The dirty-page checkpoint trigger this test is
// named for drained them under no-steal; it is gone, because steal
// eviction writes committed pages home as the cache fills, with no
// checkpoint at all.
func TestDirtyHighWaterTriggersCheckpoint(t *testing.T) {
	dev := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(dev, Options{WALBlocks: 4096, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	// Each object takes an extent page below its row: R+1 one-block
	// appends, each its own extent.
	payload := make([]byte, 4096)
	for i := 0; i < 120; i++ {
		obj, err := v.OSD.CreateObject("hw", osd.ModeRegular)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= extent.R; j++ {
			if err := obj.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		obj.Close()
	}
	// The 16 MiB log is nowhere near its own high-water mark, so no
	// checkpoint drained anything: eviction did.
	if used, c := v.WAL().Used(), v.WAL().Capacity(); used*3 >= c*2 {
		t.Fatalf("test premise broken: log %d/%d already past high water", used, c)
	}
	if n := v.WAL().Stats().Checkpoints; n != 1 {
		t.Fatalf("test premise broken: %d checkpoints, want only the format's", n)
	}
	s := v.Pager().Stats()
	if s.Steals == 0 {
		t.Error("no dirty page was written home by eviction")
	}
	if s.Cached > 64 || s.Dirty > 64 {
		t.Errorf("cache holds %d pages, %d dirty, past its 64-page capacity", s.Cached, s.Dirty)
	}
}

// TestReformatDoesNotResurrectOldLog: Create over a device that held an
// earlier volume must terminate the stale log region —
// a crash right after the format (before the first new commit) must not
// let recovery replay the previous generation over the fresh volume.
func TestReformatDoesNotResurrectOldLog(t *testing.T) {
	dev := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(dev, Options{WALBlocks: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		oid := mustCreateObject(t, v, "old", "previous generation")
		if err := v.AddName(oid, index.TagUDef, []byte(fmt.Sprintf("oldgen:%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the log region holds the old generation's committed
	// records. Reformat, then "crash" (no clean shutdown) and reopen.
	v2, err := Create(dev, Options{WALBlocks: 128})
	if err != nil {
		t.Fatalf("reformat: %v", err)
	}
	_ = v2
	v3, err := Open(dev, Options{})
	if err != nil {
		t.Fatalf("dirty open after reformat: %v", err)
	}
	defer v3.Close()
	rep, err := v3.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("fsck after reformat+crash: %v", rep.Problems)
	}
	ids, err := v3.Resolve(TagValue{index.TagUDef, []byte("oldgen:0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("old generation resurrected after reformat: %v", ids)
	}
}

// TestLazyIndexingSurvivesCrash: the background indexer's page writes
// run inside operation brackets, so lazily indexed postings are
// WAL-committed and survive a crash without a clean close.
func TestLazyIndexingSurvivesCrash(t *testing.T) {
	dev := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(dev, Options{WALBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	v.StartLazyIndexing(64)
	oid := mustCreateObject(t, v, "lazy", "lazily indexed unusualword")
	if err := v.IndexContentLazy(oid); err != nil {
		t.Fatal(err)
	}
	v.WaitIndexIdle()
	// Make the postings searchable: flush the in-memory buffer to a
	// segment (still inside the worker-free foreground path is fine —
	// Flush itself is synchronous).
	if err := v.withOp(v.ft.Inner().Flush); err != nil {
		t.Fatal(err)
	}
	// Crash without Close; recovery must replay the lazy postings.
	v2, err := Open(dev, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer v2.Close()
	ids, err := v2.Resolve(TagValue{index.TagFulltext, []byte("unusualword")})
	if err != nil || len(ids) != 1 || ids[0] != oid {
		t.Fatalf("lazy-indexed posting lost after crash: %v, %v", ids, err)
	}
}

// TestBatchBeyondCacheSteals: one Batch whose dirty set is four times the
// cache commits through steal alone. The pager chunk-flushes the
// transaction's records and evicts uncommitted pages behind them
// (WAL-before-data), no commit falls back to a checkpoint, and the stolen
// pages read back intact.
func TestBatchBeyondCacheSteals(t *testing.T) {
	const cachePages, objects = 128, 512
	v, _ := newVolume(t, Options{CachePages: cachePages, WALBlocks: 4096})
	defer v.Close()
	payload := []byte("steal: uncommitted dirty pages evict behind the log")
	cs0 := v.Pager().Stats()
	oids := make([]OID, 0, objects)
	err := v.Batch(func(b *Batch) error {
		for i := 0; i < objects; i++ {
			obj, err := b.CreateObject("u")
			if err != nil {
				return err
			}
			oids = append(oids, obj.OID())
			// R+1 inserts give the object an extent page below its row.
			for j := 0; j <= extent.R && err == nil; j++ {
				err = obj.InsertAtDeferred(b.op, 0, payload)
			}
			obj.Close()
			if err != nil {
				return err
			}
			if err := b.Tag(oids[i], index.TagUDef, fmt.Sprintf("lot:%d", i%50)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := v.Pager().Stats()
	steals, chunks := cs.Steals-cs0.Steals, cs.ChunkFlushes-cs0.ChunkFlushes
	t.Logf("%d objects against %d cache pages: %d steals, %d chunk flushes", objects, cachePages, steals, chunks)
	if n := v.CheckpointFallbacks(); n != 0 {
		t.Errorf("%d checkpoint fallbacks, want 0: steal should carry the batch", n)
	}
	if steals == 0 || chunks == 0 {
		t.Errorf("steals = %d, chunk flushes = %d: the batch did not exercise eviction", steals, chunks)
	}
	buf := make([]byte, len(payload))
	for _, i := range []int{0, objects / 2, objects - 1} {
		obj, err := v.OSD.OpenObject(oids[i])
		if err != nil {
			t.Fatal(err)
		}
		n, err := obj.ReadAt(buf, 0)
		obj.Close()
		if n != len(buf) || string(buf) != string(payload) {
			t.Errorf("object %d read back %q (%v) after steal", oids[i], buf[:n], err)
		}
	}
	rep, err := v.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("check: %v", rep.Problems)
	}
}

// TestBatchFlushOrderIsDeterministic: the same single-goroutine batches
// fed to two fresh volumes must log the same bytes and lay out every index
// tree on the same pages. The buffered multi-puts of one flush split and
// allocate in several trees (three tag stores of four shards each), so
// neither the order the flush applies the stores in nor the order a
// sharded store applies its shards in may depend on map iteration.
func TestBatchFlushOrderIsDeterministic(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0)
	build := func() *Volume {
		// A log large enough that no checkpoint runs.
		v, _ := newVolume(t, Options{WALBlocks: 8192, Clock: func() time.Time { return epoch }})
		for batch := 0; batch < 16; batch++ {
			err := v.Batch(func(b *Batch) error {
				for i := 0; i < 200; i++ {
					obj, err := b.CreateObject("det")
					if err != nil {
						return err
					}
					oid := obj.OID()
					obj.Close()
					for _, tag := range []string{index.TagUser, index.TagUDef, index.TagApp} {
						if err := b.Tag(oid, tag, fmt.Sprintf("%s:%d:%d", tag, batch, i)); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	if la, lb := a.WAL().Stats().BytesLogged, b.WAL().Stats().BytesLogged; la != lb {
		t.Errorf("BytesLogged %d vs %d", la, lb)
	}
	pages := func(tr *btree.Tree) []uint64 {
		res, err := tr.Check()
		if err != nil {
			t.Fatal(err)
		}
		return res.AllPages
	}
	trees := func(v *Volume) []*btree.Tree { return append([]*btree.Tree{v.reverse}, v.kvTrees...) }
	ta, tb := trees(a), trees(b)
	for i := range ta {
		if pa, pb := pages(ta[i]), pages(tb[i]); !slices.Equal(pa, pb) {
			t.Errorf("index tree %d: pages %v vs %v", i, pa, pb)
		}
	}
}
