package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/fulltext"
	"repro/internal/index"
	"repro/internal/osd"
)

// corruptionDetected reports whether err is one of the typed corruption
// errors a reader may legitimately surface after media rot: a page CRC
// mismatch, structurally corrupt OSD metadata built on top of one, or a
// superblock that fails its embedded checksum.
func corruptionDetected(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, osd.ErrCorrupt) || errors.Is(err, ErrBadSuperblock)
}

// corruptionFixture is a deterministic populated volume image plus the
// oracle of everything a reader should find in it.
type corruptionFixture struct {
	image    [][]byte // block-for-block device snapshot after clean close
	contents map[OID][]byte
	tags     map[OID]string
	byClass  map[int]uint64 // one representative block per scrub class
}

// buildCorruptionFixture populates a volume with enough
// structure to have every block class — btree nodes (catalog/reverse/
// object table), external extent-tree nodes (one object large enough to
// spill its tree), and data blocks — then closes it cleanly and
// snapshots the device.
func buildCorruptionFixture(t *testing.T) *corruptionFixture {
	t.Helper()
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{WALBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	fx := &corruptionFixture{
		contents: make(map[OID][]byte),
		tags:     make(map[OID]string),
		byClass:  make(map[int]uint64),
	}

	// One big object so the extent tree needs external nodes.
	big := make([]byte, 600*blockdev.DefaultBlockSize)
	for i := range big {
		big[i] = byte(i*7 + i/blockdev.DefaultBlockSize)
	}
	obj, err := v.OSD.CreateObject("big", osd.ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.WriteAt(big, 0); err != nil {
		t.Fatal(err)
	}
	fx.contents[obj.OID()] = big
	obj.Close()

	// A handful of small tagged objects for btree payload.
	for i := 0; i < 16; i++ {
		o, err := v.OSD.CreateObject("small", osd.ModeRegular)
		if err != nil {
			t.Fatal(err)
		}
		body := []byte(fmt.Sprintf("small object %d payload", i))
		if err := o.WriteAt(body, 0); err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("sweep:%d", i)
		if err := v.AddName(o.OID(), index.TagUDef, []byte(tag)); err != nil {
			t.Fatal(err)
		}
		fx.contents[o.OID()] = body
		fx.tags[o.OID()] = tag
		o.Close()
	}

	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}

	// Classify while the volume is healthy and pick a deterministic
	// representative block (lowest number) for each class.
	walk := &CheckReport{}
	u, err := v.collectUsage(walk)
	if err != nil || len(walk.Problems) != 0 {
		t.Fatalf("healthy classify walk: %v, problems %v", err, walk.Problems)
	}
	class := u.classes()
	blocks := make([]uint64, 0, len(class))
	for b := range class {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for _, b := range blocks {
		c := class[b]
		if _, have := fx.byClass[c]; !have {
			fx.byClass[c] = b
		}
	}
	// The generic lowest-numbered btree block may belong to a tree the
	// sweep's read paths never traverse (a fulltext shard, say). Pin the
	// btree representative to the catalog: every Resolve crosses it.
	catRes, err := v.catalog.Check()
	if err != nil || len(catRes.AllPages) == 0 {
		t.Fatalf("catalog check: %v (pages %d)", err, len(catRes.AllPages))
	}
	cat := catRes.AllPages[0]
	for _, p := range catRes.AllPages {
		if p < cat {
			cat = p
		}
	}
	fx.byClass[classBtree] = cat
	for _, c := range []int{classBtree, classExtentNode, classData} {
		if _, have := fx.byClass[c]; !have {
			t.Fatalf("fixture produced no blocks of class %d", c)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	fx.image = make([][]byte, 1<<14)
	buf := make([]byte, blockdev.DefaultBlockSize)
	for b := uint64(0); b < 1<<14; b++ {
		if err := mem.ReadBlock(b, buf); err != nil {
			t.Fatal(err)
		}
		fx.image[b] = append([]byte(nil), buf...)
	}
	return fx
}

// restore materializes the snapshot on a fresh device with one bit
// flipped at byteOff of block flip.
func (fx *corruptionFixture) restore(t *testing.T, flip uint64, byteOff int) *blockdev.MemDevice {
	t.Helper()
	mem := blockdev.NewMem(uint64(len(fx.image)), blockdev.DefaultBlockSize)
	for b, content := range fx.image {
		data := content
		if uint64(b) == flip {
			data = append([]byte(nil), content...)
			data[byteOff] ^= 0x10
		}
		if err := mem.WriteBlock(uint64(b), data); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

// sweepReads exercises every read path against the oracle and returns
// how many reads surfaced typed corruption. Any read that *succeeds*
// must return exactly the oracle's answer — wrong data is an immediate
// failure; any read that fails must fail typed.
func (fx *corruptionFixture) sweepReads(t *testing.T, v *Volume) (detected int) {
	t.Helper()
	for oid, want := range fx.contents {
		obj, err := v.OSD.OpenObject(oid)
		if err != nil {
			if !corruptionDetected(err) {
				t.Fatalf("open oid %d: untyped error %v", oid, err)
			}
			detected++
			continue
		}
		got := make([]byte, len(want))
		n, err := obj.ReadAt(got, 0)
		obj.Close()
		if err != nil && !(errors.Is(err, io.EOF) && n == len(want)) {
			if !corruptionDetected(err) {
				t.Fatalf("read oid %d: untyped error %v", oid, err)
			}
			detected++
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("oid %d: silent wrong data (%d bytes differ)", oid, diffCount(got, want))
		}
	}
	for oid, tag := range fx.tags {
		ids, err := v.Resolve(TagValue{index.TagUDef, []byte(tag)})
		if err != nil {
			if !corruptionDetected(err) {
				t.Fatalf("resolve %q: untyped error %v", tag, err)
			}
			detected++
			continue
		}
		if len(ids) != 1 || ids[0] != oid {
			t.Fatalf("resolve %q = %v, want [%d]", tag, ids, oid)
		}
	}
	return detected
}

func diffCount(a, b []byte) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// TestCorruptionSweepAllClasses is the acceptance sweep: flip one bit in
// a home block of every class — btree node, extent-tree node, data
// block, and the volume header — and require the rot to surface at read
// time as a typed corruption error. Never silent wrong data, never a
// panic. Scrub on the same image must count the planted block in the
// right class.
func TestCorruptionSweepAllClasses(t *testing.T) {
	fx := buildCorruptionFixture(t)

	cases := []struct {
		name  string
		class int
	}{
		{"btree-node", classBtree},
		{"extent-node", classExtentNode},
		{"data-block", classData},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := fx.restore(t, fx.byClass[tc.class], blockdev.DefaultBlockSize/3)
			v, err := Open(mem, Options{})
			if err != nil {
				if !corruptionDetected(err) {
					t.Fatalf("open: untyped error %v", err)
				}
				return // detected before a single page was served
			}
			defer v.Close()
			if n := fx.sweepReads(t, v); n == 0 {
				t.Fatalf("bit flip in %s (block %d) never detected", tc.name, fx.byClass[tc.class])
			}

			rep, err := v.Scrub()
			if err != nil {
				t.Fatalf("scrub: %v", err)
			}
			var count uint64
			switch tc.class {
			case classBtree:
				count = rep.CorruptBtreeNodes
			case classExtentNode:
				count = rep.CorruptExtentNodes
			case classData:
				count = rep.CorruptDataBlocks
			}
			if count+rep.CorruptUnreachable == 0 {
				t.Fatalf("scrub missed the planted %s: %v", tc.name, rep)
			}
		})
	}

	t.Run("volume-header", func(t *testing.T) {
		// Byte 40 sits inside the superblock's CRC-covered region [0:96].
		mem := fx.restore(t, 0, 40)
		_, err := Open(mem, Options{})
		if err == nil {
			t.Fatal("open succeeded with corrupt superblock")
		}
		if !corruptionDetected(err) {
			t.Fatalf("corrupt superblock: untyped error %v", err)
		}
	})

	t.Run("clean-control", func(t *testing.T) {
		// No flip: every read must succeed and scrub must come back clean,
		// proving the detections above are the flip and not the fixture.
		mem := fx.restore(t, ^uint64(0), 0)
		v, err := Open(mem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		if n := fx.sweepReads(t, v); n != 0 {
			t.Fatalf("clean image produced %d corruption errors", n)
		}
		rep, err := v.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("clean image scrub dirty: %v", rep)
		}
	})
}

// TestCheckDecodesPostings: fsck decodes every posting list of every
// full-text segment. A list whose count is raised past what its bytes
// can hold, planted in a segment leaf whose sidecar sum is refreshed to match
// (the page reads back clean and its tree's structure is sound), is
// reported against its segment, and a search of the term fails with
// fulltext.ErrCorrupt rather than answer from the decodable part. When
// the leaf cannot be read at all, Check fails with the device's error
// instead of reporting it as a bad list.
func TestCheckDecodesPostings(t *testing.T) {
	v, dev := newVolume(t, Options{})
	oid := mustCreateObject(t, v, "u", "x")
	if err := v.AddName(oid, index.TagFulltext, []byte("zqxj")); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil { // flushes the segment and writes it home
		t.Fatal(err)
	}
	// The term's leaf cell: key length, key, inline tag, then the list's
	// length (one byte, for a list this short) and the list, whose count
	// becomes that length: more postings than the bytes after it.
	cell := []byte("\x04zqxj\x00")
	buf := make([]byte, dev.BlockSize())
	planted := false
	var leaf uint64
	for b := uint64(0); b < dev.NumBlocks() && !planted; b++ {
		if err := dev.ReadBlock(b, buf); err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(buf, cell) + len(cell); i >= len(cell) {
			buf[i+1] = buf[i]
			if err := dev.WriteBlock(b, buf); err != nil {
				t.Fatal(err)
			}
			refreshSidecarSum(t, dev, b, buf)
			planted, leaf = true, b
		}
	}
	if !planted {
		t.Fatal("no leaf holds the term's cell")
	}
	v2, err := Open(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "segment") || !strings.Contains(rep.Problems[0], `"zqxj"`) {
		t.Errorf("Check problems %q, want one naming the segment and the term", rep.Problems)
	}
	if _, err := v2.Fulltext().Lookup([]byte("zqxj")); !errors.Is(err, fulltext.ErrCorrupt) {
		t.Errorf("Lookup of the planted term: %v, want fulltext.ErrCorrupt", err)
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}

	fd := blockdev.NewFault(dev)
	fd.AddRule(blockdev.FaultRule{Kind: blockdev.FaultError, Op: blockdev.OpRead, Lo: leaf, Hi: leaf + 1})
	v3, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Close()
	if rep, err := v3.Check(); !errors.Is(err, blockdev.ErrInjected) {
		t.Errorf("Check over an unreadable leaf: %v, %v; want blockdev.ErrInjected", rep, err)
	}
}
