package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/extent"
	"repro/internal/fulltext"
	"repro/internal/index"
	"repro/internal/osd"
	"repro/internal/pager"
)

var errRollback = errors.New("forced rollback")

// assertRolledBack holds a volume to the state a test recorded before a
// bracket that failed: check runs on the live volume, then on a crash
// copy of its device, which must also recover exactly.
func assertRolledBack(t *testing.T, v *Volume, mem *blockdev.MemDevice, check func(label string, v *Volume)) {
	t.Helper()
	if err := v.VerifyAllocator(); err != nil {
		t.Fatalf("live: %v", err)
	}
	rep, err := v.Check()
	if err != nil || !rep.Ok() {
		t.Fatalf("live fsck: %v %v", err, rep.Problems)
	}
	check("live", v)
	v2 := mustOpenExact(t, crashCopy(t, mem))
	defer v2.Close()
	check("after a crash", v2)
}

// TestRecoverAbortedDeleteObject: one bracket runs DeleteObject's body —
// strip every name, destroy the object — and then fails. The destroy
// staged the inverse that takes its runs back, the meta row and the names
// theirs, and the handle goes only at commit: object, bytes, meta row and
// names are all there, live and after a crash, and the open handle still
// writes.
func TestRecoverAbortedDeleteObject(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{
		ExtentConfig:   extent.Config{MaxExtentBytes: 4096},
		FulltextConfig: fulltext.Config{FlushDocs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	content := fill(30000, 9)
	obj, err := v.OSD.CreateObject("owner", osd.ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	oid := obj.OID()
	if err := obj.Append(content); err != nil {
		t.Fatal(err)
	}
	for _, tv := range []TagValue{TV("UDEF", "keep"), TV("USER", "owner"), TV(index.TagFulltext, "durable words")} {
		if err := v.AddName(oid, tv.Tag, tv.Value); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := v.OSD.Stat(oid)
	if err != nil {
		t.Fatal(err)
	}
	names, err := v.Names(oid)
	if err != nil {
		t.Fatal(err)
	}

	err = v.withOp(func(op *pager.Op) error {
		if err := v.removeAllNamesDeferred(op, oid); err != nil {
			return err
		}
		if err := v.OSD.DeleteObjectDeferred(op, oid); err != nil {
			return err
		}
		return errRollback
	})
	if !errors.Is(err, errRollback) {
		t.Fatalf("bracket returned %v", err)
	}
	assertRolledBack(t, v, mem, func(label string, v *Volume) {
		if got, err := v.OSD.Stat(oid); err != nil || got != meta {
			t.Fatalf("%s: meta row %+v, %v; want %+v", label, got, err, meta)
		}
		if got := readExtObj(t, v, oid, len(content)); !bytes.Equal(got, content) {
			t.Fatalf("%s: the object's bytes changed", label)
		}
		if got, err := v.Names(oid); err != nil || fmt.Sprint(got) != fmt.Sprint(names) {
			t.Fatalf("%s: names %v, %v; want %v", label, got, err, names)
		}
		for _, tv := range []TagValue{TV("UDEF", "keep"), TV(index.TagFulltext, "durable")} {
			if got, err := v.Resolve(tv); err != nil || len(got) != 1 || got[0] != oid {
				t.Fatalf("%s: %s resolves to %v, %v", label, tv.Tag, got, err)
			}
		}
	})
	// The handle the aborted delete left open still works, and the delete
	// itself still goes through.
	if err := obj.Append([]byte("more")); err != nil {
		t.Fatal(err)
	}
	if err := v.DeleteObject(oid); err != nil {
		t.Fatal(err)
	}
	assertRecoveryExact(t, v)
}

// TestRecoverAbortedCreateObject: a bracket creates an object, grows its
// extent tree past one leaf — so the root has pushed its cells down and
// the tree owns data runs and several node pages — and then fails. The
// tree's own inverse gives every page and run back, so the allocator
// stays exact and the object is gone, live and after a crash.
func TestRecoverAbortedCreateObject(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{ExtentConfig: extent.Config{MaxExtentBytes: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, v, 10)
	free := v.Allocator().FreeBlocks() + v.Allocator().LimboBlocks()
	var pages int
	err = v.withOp(func(op *pager.Op) error {
		obj, err := v.OSD.CreateObjectDeferred(op, "o", osd.ModeRegular)
		if err != nil {
			return err
		}
		defer obj.Close()
		for i := 0; i < 300; i++ {
			if _, err := obj.AppendDeferred(op, fill(4096, byte(i))); err != nil {
				return err
			}
		}
		res, err := obj.ExtentTree().Check()
		if err != nil {
			return err
		}
		pages = res.Pages
		return errRollback
	})
	if !errors.Is(err, errRollback) {
		t.Fatalf("bracket returned %v", err)
	}
	if pages < 2 {
		t.Fatalf("the aborted create built %d extent pages, want a pushed-down root split below its row", pages)
	}
	assertRolledBack(t, v, mem, func(label string, v *Volume) {
		n := 0
		if err := v.OSD.ForEach(func(osd.Meta) bool { n++; return true }); err != nil || n != 10 {
			t.Fatalf("%s: %d objects, %v", label, n, err)
		}
	})
	if got := v.Allocator().FreeBlocks() + v.Allocator().LimboBlocks(); got != free {
		t.Fatalf("free blocks %d after the failed create, %d before it", got, free)
	}
}

// TestRecoverAbortedFulltextBatch: a Batch indexes one document and
// deletes another from the full-text index, then fails. The index's
// in-memory state — buffer, segment list and levels, tombstones, doc
// registry — follows the rollback, so the layout is the pre-batch one and
// searches answer as before, live and after a crash. With one document
// per segment the batch's indexing flushes a segment and merges level 0,
// and the merge drops the segments that hold the committed documents; in
// the "tiers" leg the flush cascades, merging level 0 into level 1 and
// level 1 into level 2.
func TestRecoverAbortedFulltextBatch(t *testing.T) {
	for _, leg := range []struct {
		name   string
		cfg    fulltext.Config
		extra  int // documents indexed before the batch besides alpha and beta
		levels int // levels the batch's flush leaves, when it flushes
	}{
		{"segments", fulltext.Config{FlushDocs: 1, MaxSegments: 2}, 0, 2},
		{"tiers", fulltext.Config{FlushDocs: 1, MaxSegments: 2}, 6, 3},
		{"buffer", fulltext.Config{FlushDocs: 64}, 0, 0},
	} {
		t.Run(leg.name, func(t *testing.T) {
			mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
			v, err := Create(mem, Options{FulltextConfig: leg.cfg})
			if err != nil {
				t.Fatal(err)
			}
			a := mustCreateObject(t, v, "u", "alpha common")
			b := mustCreateObject(t, v, "u", "beta common")
			c := mustCreateObject(t, v, "u", "gamma common")
			indexed := []OID{a, b}
			for i := 0; i < leg.extra; i++ {
				indexed = append(indexed, mustCreateObject(t, v, "u", fmt.Sprintf("extra%d common", i)))
			}
			for _, oid := range indexed {
				if err := v.IndexContent(oid); err != nil {
					t.Fatal(err)
				}
			}
			search := func(v *Volume, term string) string {
				ids, err := v.Fulltext().Inner().Search(term)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(ids)
			}
			layout := func(v *Volume) string { return fmt.Sprint(v.Fulltext().Inner().Layout()) }
			want := map[string]string{}
			for _, term := range []string{"alpha", "beta", "gamma", "common", "extra0", "extra5"} {
				want[term] = search(v, term)
			}
			wantLayout := layout(v)
			err = v.Batch(func(bt *Batch) error {
				if err := bt.IndexContent(c); err != nil {
					return err
				}
				if leg.levels > 0 {
					top := 0
					for _, s := range v.Fulltext().Inner().Layout() {
						top = max(top, s.Level+1)
					}
					if top != leg.levels {
						t.Errorf("the batch's flush left %d levels, want %d", top, leg.levels)
					}
				}
				if err := v.removeNameDeferred(bt.op, a, index.TagFulltext, nil); err != nil {
					return err
				}
				return errRollback
			})
			if !errors.Is(err, errRollback) {
				t.Fatalf("batch returned %v", err)
			}
			check := func(label string, v *Volume) {
				if got := layout(v); got != wantLayout {
					t.Fatalf("%s: segments %s, want %s", label, got, wantLayout)
				}
				for term, w := range want {
					if got := search(v, term); got != w {
						t.Fatalf("%s: %q finds %s, want %s", label, term, got, w)
					}
				}
			}
			if leg.cfg.FlushDocs == 1 {
				assertRolledBack(t, v, mem, check)
				return
			}
			check("live", v)
			assertRecoveryExact(t, v)
		})
	}
}

// TestRecoverAbortedFulltextBesideCompaction: two batches index at once.
// When the second starts, the first has flushed a segment (one committed
// document, one of its own) and buffered another document; the second
// indexes enough to flush twice and compact. The first then fails. The
// index lets one operation change it at a time, so the second waits for
// the rollback rather than compacting the first's segment or flushing its
// document: afterwards the first's words find nothing and everything
// committed is found, live and after a crash.
func TestRecoverAbortedFulltextBesideCompaction(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{FulltextConfig: fulltext.Config{FlushDocs: 2, MaxSegments: 1}})
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]OID, 6)
	for i := range docs {
		docs[i] = mustCreateObject(t, v, "u", fmt.Sprintf("word%d common", i))
	}
	if err := v.IndexContent(docs[0]); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	err = v.Batch(func(bt *Batch) error {
		for _, oid := range docs[1:3] {
			if err := bt.IndexContent(oid); err != nil {
				return err
			}
		}
		go func() {
			done <- v.Batch(func(bt *Batch) error {
				for _, oid := range docs[3:] {
					if err := bt.IndexContent(oid); err != nil {
						return err
					}
				}
				return nil
			})
		}()
		select {
		case err := <-done: // it ran over this batch's uncommitted state
			done <- err
		case <-time.After(200 * time.Millisecond):
		}
		return errRollback
	})
	if !errors.Is(err, errRollback) {
		t.Fatalf("batch returned %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c := v.Fulltext().Inner().Stats().Compactions; c == 0 {
		t.Fatal("the second batch never compacted the index")
	}
	assertRolledBack(t, v, mem, func(label string, v *Volume) {
		for i, oid := range docs {
			ids, err := v.Fulltext().Inner().Search(fmt.Sprintf("word%d", i))
			want := fmt.Sprint([]uint64{uint64(oid)})
			if i == 1 || i == 2 {
				want = "[]"
			}
			if err != nil || fmt.Sprint(ids) != want {
				t.Fatalf("%s: word%d finds %v, %v; want %s", label, i, ids, err, want)
			}
		}
	})
}
