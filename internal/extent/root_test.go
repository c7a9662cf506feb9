package extent

import (
	"bytes"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/pager"
)

// TestOpenDerivesSizeFromTheRoot: no page stores a tree's size, extent
// count or height. A reopened tree whose root is internal sums its size
// from the root, finds its height down the leftmost spine and counts its
// extents along the leaves, and a single-leaf tree opens with one read.
func TestOpenDerivesSizeFromTheRoot(t *testing.T) {
	e := newEnv(t, 16384)
	tr, err := Create(e.pg, e.ba, Config{MaxExtentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 300; i++ { // past one leaf: the root is internal
		p := pattern(4096, byte(i))
		if err := tr.WriteAt(p, uint64(len(want))); err != nil {
			t.Fatal(err)
		}
		want = append(want, p...)
	}
	if err := tr.Truncate(uint64(len(want)) + 5000); err != nil { // a trailing hole
		t.Fatal(err)
	}
	want = append(want, make([]byte, 5000)...)
	small, err := Create(e.pg, e.ba, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.WriteAt([]byte("one leaf"), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.pg.Sync(); err != nil {
		t.Fatal(err)
	}

	tr2, err := Open(pager.New(e.dev, 128, true), e.ba, tr.RootPage(), Config{MaxExtentBytes: 4096})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	res := mustCheck(t, tr2)
	if tr2.Size() != uint64(len(want)) || res.Bytes != uint64(len(want)) {
		t.Fatalf("Size %d, leaves hold %d, want %d", tr2.Size(), res.Bytes, len(want))
	}
	if tr2.height != 2 || res.Pages != 3 {
		t.Fatalf("height %d over %d pages, want 2 over 3", tr2.height, res.Pages)
	}
	if got := tr2.ExtentCount(); got != 301 || got != res.Extents {
		t.Fatalf("ExtentCount %d, leaves hold %d, want 301", got, res.Extents)
	}
	if !bytes.Equal(readAll(t, tr2), want) {
		t.Fatal("content diverged")
	}

	dev := blockdev.NewSim(e.dev, blockdev.NullModel{})
	small2, err := Open(pager.New(dev, 128, true), e.ba, small.RootPage(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if reads := dev.Stats().Reads; reads != 1 || small2.Size() != 8 {
		t.Fatalf("a single-leaf tree of %d bytes opened with %d reads, want 8 bytes and 1 read", small2.Size(), reads)
	}
}

// TestNewTreeIsOnePageAndNoRead: creating a tree and filling it with 2
// KiB takes one node page and a one-block data run from the allocator,
// and reads nothing: the run is fresh, so its partial block is written
// zero-padded instead of read first.
func TestNewTreeIsOnePageAndNoRead(t *testing.T) {
	mem := blockdev.NewMem(1024, blockdev.DefaultBlockSize)
	dev := blockdev.NewSim(mem, blockdev.NullModel{})
	pg := pager.New(dev, 64, true)
	ba := buddy.New(1, 1023)
	free := ba.FreeBlocks()
	tr, err := Create(pg, ba, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(2048, 3)
	if err := tr.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if used := free - ba.FreeBlocks(); used != 2 {
		t.Errorf("a new 2 KiB object took %d blocks, want 2 (its root and its data)", used)
	}
	if reads := dev.Stats().Reads; reads != 0 {
		t.Errorf("creating and filling a 2 KiB object read %d blocks, want 0", reads)
	}
	if res := mustCheck(t, tr); res.Pages != 1 {
		t.Errorf("%d node pages, want 1", res.Pages)
	}
	if !bytes.Equal(readAll(t, tr), data) {
		t.Fatal("content diverged")
	}
}

// TestRootStaysPut: however the tree grows and shrinks, the page that
// names it does not move, and every node carries the owner it was
// created with.
func TestRootStaysPut(t *testing.T) {
	e := newEnv(t, 16384)
	const owner = 0xC0FFEE
	tr, err := CreateOp(e.pg, e.ba, Config{MaxExtentBytes: 4096}, nil, owner)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.RootPage()
	for i := 0; i < 600; i++ {
		if _, err := tr.Append(pattern(4096, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	res := mustCheck(t, tr)
	if tr.height != 2 || res.AllPages[0] != root || res.Owner != owner {
		t.Fatalf("grown: height %d, root %d (want %d), owner %#x", tr.height, res.AllPages[0], root, res.Owner)
	}
	if got, err := Owner(e.pg, root); err != nil || got != owner {
		t.Fatalf("Owner = %#x, %v", got, err)
	}
	if err := tr.DeleteRange(4096, tr.Size()-4096); err != nil {
		t.Fatal(err)
	}
	res = mustCheck(t, tr)
	if tr.height != 1 || res.Pages != 1 || res.AllPages[0] != root || res.Owner != owner {
		t.Fatalf("drained: height %d over %d pages, root %d (want %d), owner %#x",
			tr.height, res.Pages, res.AllPages[0], root, res.Owner)
	}
	if !bytes.Equal(readAll(t, tr), pattern(4096, 0)) {
		t.Fatal("content diverged")
	}
}

// TestReplayDerivesSplitSums replays a split sequence by hand: the parent
// entries its records write name a child and nothing else, so replay
// sums each child as it has rebuilt it, and the root's push-down sums
// what the root held.
func TestReplayDerivesSplitSums(t *testing.T) {
	pages := map[uint64][]byte{}
	get := func(pno uint64) ([]byte, error) {
		if pages[pno] == nil {
			pages[pno] = make([]byte, blockdev.DefaultBlockSize)
		}
		return pages[pno], nil
	}
	cell := func(n uint32) []byte { return encCell(Extent{Len: n}) }
	const root, leaf, right, right2, owner = 10, 11, 12, 13, 77
	steps := []struct {
		page    uint64
		payload []byte
	}{
		{root, encXop(xopInit, []byte{pageLeaf}, xu64(owner))},
		{root, encXop(xopLeafIns, xu16(0), cell(100))},
		{root, encXop(xopLeafIns, xu16(1), cell(200))},
		{root, encXop(xopLeafIns, xu16(2), cell(300))},
		{root, encXop(xopLeafIns, xu16(3), cell(400))},
		// The root pushes its cells down and splits them under itself:
		// [100 200] | [300 400].
		{root, encXop(xopPushDown, xu64(leaf))},
		{leaf, encXop(xopSplit, xu64(right), xu16(2))},
		{root, encXop(xopChildSet, xu16(0), xu64(leaf))},
		{root, encXop(xopChildIns, xu16(1), xu64(right))},
		// The right leaf grows by 500, and its entry by a delta.
		{right, encXop(xopLeafIns, xu16(2), cell(500))},
		{root, encXop(xopBump, xu16(1), xu64(500))},
		// It splits: [300] | [400 500].
		{right, encXop(xopSplit, xu64(right2), xu16(1))},
		{root, encXop(xopChildSet, xu16(1), xu64(right))},
		{root, encXop(xopChildIns, xu16(2), xu64(right2))},
	}
	for i, s := range steps {
		if err := ReplayOp(get, s.page, s.payload); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	n := nodeRef{pages[root]}
	want := []childEntry{{leaf, 300}, {right, 300}, {right2, 900}}
	if n.typ() != pageInternal || n.ncells() != len(want) {
		t.Fatalf("root is type %d with %d entries, want internal with %d", n.typ(), n.ncells(), len(want))
	}
	for i, w := range want {
		if got := n.childCell(i); got != w {
			t.Errorf("root entry %d = %+v, want %+v", i, got, w)
		}
	}
	for _, pno := range []uint64{root, leaf, right, right2} {
		if got := (nodeRef{pages[pno]}).owner(); got != owner {
			t.Errorf("page %d names owner %d, want %d", pno, got, owner)
		}
	}
}
