package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/extent"
	"repro/internal/fulltext"
	"repro/internal/index"
	"repro/internal/osd"
	"repro/internal/redo"
	"repro/internal/wal"
)

// TestLogBytesPerSmallEdit holds physiological logging to its byte
// count: a small naming edit, and a 64-byte append or overwrite on an
// object whose extent tree spans several nodes, each log the logical
// mutation, a few hundred bytes, not images of the 4 KiB pages they
// touch. The page-image pipeline this replaced logged 16 617.8 B per
// tag and 20 678 / 12 420 B per 64-byte append / overwrite (DESIGN.md,
// "The commit pipeline", keeps the rows). Rewriting the tree header on every edit,
// size and extent count included, cost another 77 B per 64-byte edit,
// and the metadata copy the header page kept 99 B more. An append now
// also logs the sum of the data block it wrote, about 50 B. With the
// extent root in the object's row, an edit's root cells and its mtime
// ride one row put: the append's leaf and root records and its row put
// (275.6 B) became a leaf record and a row put (240.6 B), while an
// overwrite's row carries the root's cells, 33 B for this tree's two
// entries against 16 B of size and root page before (191.1 → 200.1 B).
// Later changes took these to 210.9 / 231.6 / 188.7 B. One frame per
// append then carried the CRC, length and txid once per commit, and each
// record only its kind, length and varint page and LSN deltas, about 6 B
// against a 33-byte header: 134.2 / 127.6 / 106.3 B. The bounds are the
// measured values.
func TestLogBytesPerSmallEdit(t *testing.T) {
	const ops = 240
	bytesPerOp := func(t *testing.T, v *Volume, edit func(i int) error) float64 {
		t.Helper()
		before := v.WAL().Stats().BytesLogged
		for i := 0; i < ops; i++ {
			if err := edit(i); err != nil {
				t.Fatal(err)
			}
		}
		return float64(v.WAL().Stats().BytesLogged-before) / ops
	}

	t.Run("tag", func(t *testing.T) {
		v, _ := newVolume(t, Options{IndexShards: 1, WALBlocks: 4096})
		defer v.Close()
		oids := make([]OID, 16)
		for i := range oids {
			oids[i] = mustCreateObject(t, v, "w", "")
		}
		got := bytesPerOp(t, v, func(i int) error {
			return v.AddName(oids[i%len(oids)], index.TagUDef, []byte(fmt.Sprintf("v:%d", i)))
		})
		t.Logf("%.1f B/op", got)
		if got > 135 {
			t.Errorf("a tag logs %.1f B, want ≤ 135", got)
		}
	})

	const edit = 64
	for _, tc := range []struct {
		name  string
		op    func(obj *osd.Object, p []byte, i int) error
		bound float64
	}{
		{"append-64", func(obj *osd.Object, p []byte, _ int) error { return obj.Append(p) }, 128},
		{"overwrite-64", func(obj *osd.Object, p []byte, i int) error {
			return obj.WriteAt(p, uint64(i)*8191%(obj.Size()-edit))
		}, 107},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, _ := newVolume(t, Options{WALBlocks: 4096, ExtentConfig: extent.Config{MaxExtentBytes: 4096}})
			defer v.Close()
			// ~300 extents: the tree has split past one leaf, so a small
			// edit walks several levels.
			var obj *osd.Object
			err := v.Batch(func(b *Batch) error {
				var err error
				if obj, err = b.CreateObject("w"); err != nil {
					return err
				}
				chunk := make([]byte, 4096)
				for j := 0; j < 300; j++ {
					chunk[0] = byte(j)
					if err := b.Append(obj, chunk); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer obj.Close()
			p := make([]byte, edit)
			got := bytesPerOp(t, v, func(i int) error {
				p[0] = byte(i)
				return tc.op(obj, p, i)
			})
			t.Logf("%.1f B/op over %d extents", got, obj.ExtentCount())
			if got > tc.bound {
				t.Errorf("a 64-byte edit logs %.1f B, want ≤ %.0f", got, tc.bound)
			}
		})
	}

	// A batch packs its 2 KiB documents two to a block: each document logs
	// its row and the allocation of its slot, and each pack one sum, where
	// a block per document logged an allocation and a sum for every one
	// (188.2 B per document). A pack logs no allocation of its own: the
	// log knows it by its slots (pager.Space.Slot), so a batch that dies
	// with a pack open leaves none of its sectors taken. The bound is the
	// measured value.
	t.Run("batch-25x2KiB", func(t *testing.T) {
		v, _ := newVolume(t, Options{WALBlocks: 4096})
		defer v.Close()
		const batches, docs = 10, 25
		before := v.WAL().Stats().BytesLogged
		for i := 0; i < batches; i++ {
			if _, err := packDocs(v, repeat(2048, docs), byte(i)); err != nil {
				t.Fatal(err)
			}
		}
		got := float64(v.WAL().Stats().BytesLogged-before) / (batches * docs)
		t.Logf("%.1f B per document", got)
		if got > 185 {
			t.Errorf("a packed document logs %.1f B, want ≤ 185", got)
		}
	})
}

// TestSegmentFlushLogsNoPostings: a full-text flush builds its segment
// whole (btree.Build), and so does the tiered merge a later flush sets
// off. Neither logs a page record (btree op or byte range) for a page of
// a segment it built: the log holds the pages' allocations and sums, and
// no posting. Each commit logs a bounded number of bytes per page of the
// segments it built — the operation's own records included; a segment
// grown by logged puts put every posting in the log, several KiB per
// page.
func TestSegmentFlushLogsNoPostings(t *testing.T) {
	const flushDocs, maxSegs, walBlocks = 64, 2, 4096
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{WALBlocks: walBlocks,
		FulltextConfig: fulltext.Config{FlushDocs: flushDocs, MaxSegments: maxSegs}})
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, v, flushDocs*(maxSegs+1))
	if err := v.Sync(); err != nil { // the log starts empty
		t.Fatal(err)
	}
	segPages := func() map[uint64]bool {
		pages := map[uint64]bool{}
		for _, tr := range v.Fulltext().Inner().Trees()[1:] { // [0] is the manifest
			res, err := tr.Check()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.AllPages {
				pages[p] = true
			}
		}
		return pages
	}
	built := map[uint64]bool{}
	flushes, merges := 0, 0
	for i, oid := range oids {
		var text strings.Builder
		fmt.Fprintf(&text, "doc%d shared", i)
		for j := 0; j < 200; j++ {
			fmt.Fprintf(&text, " t%dx%d", i, j)
		}
		had, ft0 := segPages(), v.Fulltext().Inner().Stats()
		b0 := v.WAL().Stats().BytesLogged
		if err := v.AddName(oid, index.TagFulltext, []byte(text.String())); err != nil {
			t.Fatal(err)
		}
		logged := v.WAL().Stats().BytesLogged - b0
		ft := v.Fulltext().Inner().Stats()
		if ft.Flushes == ft0.Flushes {
			continue
		}
		kind := "flush"
		if flushes++; ft.Compactions > ft0.Compactions {
			kind = "merge"
			merges++
		}
		pages := 0
		for p := range segPages() {
			if !had[p] {
				built[p] = true
				pages++
			}
		}
		perPage := float64(logged) / float64(pages)
		t.Logf("%s: %d B logged for %d new segment pages, %.0f B/page", kind, logged, pages, perPage)
		if perPage > 256 {
			t.Errorf("a %s logs %.0f B per segment page, want ≤ 256", kind, perPage)
		}
	}
	if flushes != maxSegs+1 || merges != 1 {
		t.Fatalf("%d flushes and %d merges, want %d and 1", flushes, merges, maxSegs+1)
	}
	// Read the log back, as recovery does, from a copy of the device.
	img := crashCopy(t, mem)
	var pageRecs int
	if _, err := wal.New(img, 1, walBlocks).Recover(func(r redo.Record) error {
		if k := redo.BaseKind(r.Kind); (k == redo.KindBtreeOp || k == redo.KindRange) && built[r.Page] {
			pageRecs++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if pageRecs > 0 {
		t.Errorf("the log holds %d page records for pages of the built segments", pageRecs)
	}
}
