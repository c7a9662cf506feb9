package extent

import (
	"bytes"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/pager"
)

// TestOpenDerivesSizeFromTheRoot: no page stores a tree's size, extent
// count or height, and opening a tree reads nothing. A reopened tree
// whose root is internal sums its size from the root, takes its height
// from the root's header and counts its extents along the leaves.
func TestOpenDerivesSizeFromTheRoot(t *testing.T) {
	e := newEnv(t, 16384)
	tr, err := Create(e.pg, e.ba, Config{MaxExtentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 300; i++ { // past one leaf page: the root is internal
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
	if err := e.pg.Sync(); err != nil {
		t.Fatal(err)
	}

	dev := blockdev.NewSim(e.dev, blockdev.NullModel{})
	tr2, err := Open(pager.New(dev, 128, true), e.ba, tr.Root(), 0, Config{MaxExtentBytes: 4096}, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if reads := dev.Stats().Reads; reads != 0 || tr2.Size() != uint64(len(want)) {
		t.Fatalf("opened a %d-byte tree (want %d) with %d reads, want none", tr2.Size(), len(want), reads)
	}
	res := mustCheck(t, tr2)
	if res.Bytes != uint64(len(want)) {
		t.Fatalf("leaves hold %d, want %d", res.Bytes, len(want))
	}
	if tr2.height != 2 || res.Pages != 2 {
		t.Fatalf("height %d over %d pages, want 2 over 2", tr2.height, res.Pages)
	}
	if got := tr2.ExtentCount(); got != 301 || got != res.Extents {
		t.Fatalf("ExtentCount %d, leaves hold %d, want 301", got, res.Extents)
	}
	if !bytes.Equal(readAll(t, tr2), want) {
		t.Fatal("content diverged")
	}
	if _, err := Open(e.pg, e.ba, Root{R + 1}, 0, Config{}, nil); err == nil {
		t.Fatal("opened a root of R+1 cells")
	}
}

// TestNewTreeHasNoPageAndReadsNothing: creating a tree and filling it
// with 2 KiB takes a one-block data run from the allocator and no node
// page — the root lives in the anchor — and reads nothing: the run is
// fresh, so its partial block is written zero-padded instead of read
// first.
func TestNewTreeHasNoPageAndReadsNothing(t *testing.T) {
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
	if used := free - ba.FreeBlocks(); used != 1 {
		t.Errorf("a new 2 KiB object took %d blocks, want 1 (its data)", used)
	}
	if reads := dev.Stats().Reads; reads != 0 {
		t.Errorf("creating and filling a 2 KiB object read %d blocks, want 0", reads)
	}
	if res := mustCheck(t, tr); res.Pages != 0 {
		t.Errorf("%d node pages, want 0", res.Pages)
	}
	if !bytes.Equal(readAll(t, tr), data) {
		t.Fatal("content diverged")
	}
}

// TestRootPushesDownAndPullsUp: a tree grown past R extents pushes its
// root's cells into pages below it, every one naming the owner the tree
// was created with, and drained back to R or fewer it pulls them up and
// holds no page again.
func TestRootPushesDownAndPullsUp(t *testing.T) {
	e := newEnv(t, 16384)
	const owner = 0xC0FFEE
	tr := CreateOp(e.pg, e.ba, Config{MaxExtentBytes: 4096}, nil, owner, nil)
	for i := 0; i < 600; i++ {
		if _, err := tr.Append(pattern(4096, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	res := mustCheck(t, tr) // every page names owner
	if tr.height < 2 || res.Pages < 3 {
		t.Fatalf("grown: height %d over %d pages", tr.height, res.Pages)
	}
	if err := tr.DeleteRange(4096, tr.Size()-4096); err != nil {
		t.Fatal(err)
	}
	res = mustCheck(t, tr)
	if tr.height != 1 || res.Pages != 0 {
		t.Fatalf("drained: height %d over %d pages, want the root alone", tr.height, res.Pages)
	}
	if !bytes.Equal(readAll(t, tr), pattern(4096, 0)) {
		t.Fatal("content diverged")
	}
}

// TestReplayDerivesSplitSums replays a split and merge sequence by hand:
// the parent entries its records write name a child and nothing else, so
// replay sums each child as it has rebuilt it.
func TestReplayDerivesSplitSums(t *testing.T) {
	pages := map[uint64][]byte{}
	get := func(pno uint64) ([]byte, error) {
		if pages[pno] == nil {
			pages[pno] = make([]byte, blockdev.DefaultBlockSize)
		}
		return pages[pno], nil
	}
	cell := func(n uint32) []byte { return encCell(Extent{Len: n}) }
	const parent, leaf, right, right2, owner = 10, 11, 12, 13, 77
	entry := append(xu64(leaf), xu64(1000)...)
	steps := []struct {
		page    uint64
		payload []byte
	}{
		// A pushed-down root: the leaf comes with its cells, the parent
		// with its one entry.
		{leaf, encXop(xopInit, []byte{pageLeaf}, xu64(owner), cell(100), cell(200), cell(300), cell(400))},
		{parent, encXop(xopInit, []byte{pageInternal}, xu64(owner), entry)},
		// The leaf splits under the parent: [100 200] | [300 400].
		{leaf, encXop(xopSplit, xu64(right), xu16(2))},
		{parent, encXop(xopChildSet, xu16(0), xu64(leaf))},
		{parent, encXop(xopChildIns, xu16(1), xu64(right))},
		// The right leaf grows by 500, and its entry by a delta.
		{right, encXop(xopLeafIns, xu16(2), cell(500))},
		{parent, encXop(xopBump, xu16(1), xu64(500))},
		// It splits: [300] | [400 500].
		{right, encXop(xopSplit, xu64(right2), xu16(1))},
		{parent, encXop(xopChildSet, xu16(1), xu64(right))},
		{parent, encXop(xopChildIns, xu16(2), xu64(right2))},
		// And merges back: [300 400 500].
		{right, encXop(xopAbsorb, xu64(right2))},
		{parent, encXop(xopChildSet, xu16(1), xu64(right))},
		{parent, encXop(xopChildDel, xu16(2))},
	}
	for i, s := range steps {
		if err := ReplayOp(get, s.page, s.payload); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	n := nodeRef{pages[parent]}
	want := []childEntry{{leaf, 300}, {right, 1200}}
	if n.typ() != pageInternal || n.ncells() != len(want) {
		t.Fatalf("parent is type %d with %d entries, want internal with %d", n.typ(), n.ncells(), len(want))
	}
	for i, w := range want {
		if got := n.childCell(i); got != w {
			t.Errorf("parent entry %d = %+v, want %+v", i, got, w)
		}
	}
	if next := (nodeRef{pages[right]}).next(); next != 0 {
		t.Errorf("the merged leaf links on to %d, want the chain's end", next)
	}
	for _, pno := range []uint64{parent, leaf, right, right2} {
		if got := (nodeRef{pages[pno]}).owner(); got != owner {
			t.Errorf("page %d names owner %d, want %d", pno, got, owner)
		}
	}
}
