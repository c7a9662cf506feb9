package extent

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/pager"
)

// TestOpenIgnoresReservedHeaderBytes: older images kept a size and an
// extent count in header bytes 24–39. Nothing reads them now: a header
// whose reserved bytes hold stale values opens with the size its root
// sums and the extent count its leaves hold, and checks clean.
func TestOpenIgnoresReservedHeaderBytes(t *testing.T) {
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
	if err := e.pg.Sync(); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, blockdev.DefaultBlockSize)
	if err := e.dev.ReadBlock(tr.HeaderPage(), hdr); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(hdr[24:], 12345) // a stale size
	binary.LittleEndian.PutUint64(hdr[32:], 7)     // a stale extent count
	if err := e.dev.WriteBlock(tr.HeaderPage(), hdr); err != nil {
		t.Fatal(err)
	}

	tr2, err := Open(pager.New(e.dev, 128, true), e.ba, tr.HeaderPage(), Config{MaxExtentBytes: 4096})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	res := mustCheck(t, tr2)
	if tr2.Size() != uint64(len(want)) || res.Bytes != uint64(len(want)) {
		t.Fatalf("Size %d, leaves hold %d, want %d", tr2.Size(), res.Bytes, len(want))
	}
	if got := tr2.ExtentCount(); got != 301 || got != res.Extents {
		t.Fatalf("ExtentCount %d, leaves hold %d, want 301", got, res.Extents)
	}
	if !bytes.Equal(readAll(t, tr2), want) {
		t.Fatal("content diverged")
	}
}

// TestReplayDerivesSplitSums replays a split sequence by hand in both
// record shapes: the current one, whose parent entries name a child and
// nothing else, and the older one, which carried a byte total after each
// child. Either way replay sums each child as it has rebuilt it, so the
// stale totals an older log carries are ignored.
func TestReplayDerivesSplitSums(t *testing.T) {
	const stale = 1 << 40
	for _, old := range []bool{false, true} {
		pages := map[uint64][]byte{}
		get := func(pno uint64) ([]byte, error) {
			if pages[pno] == nil {
				pages[pno] = make([]byte, blockdev.DefaultBlockSize)
			}
			return pages[pno], nil
		}
		entry := func(code byte, idx int, child uint64) []byte {
			if old {
				return encXop(code, xu16(idx), xu64(child), xu64(stale))
			}
			return encXop(code, xu16(idx), xu64(child))
		}
		newRoot := func(left, right uint64) []byte {
			if old {
				return encXop(xopNewRoot, xu64(left), xu64(stale), xu64(right), xu64(stale))
			}
			return encXop(xopNewRoot, xu64(left), xu64(right))
		}
		cell := func(n uint32) []byte { return encCell(Extent{Len: n}) }
		const leaf, right, root, right2 = 10, 11, 12, 13
		steps := []struct {
			page    uint64
			payload []byte
		}{
			{leaf, encXop(xopInit, []byte{pageLeaf})},
			{leaf, encXop(xopLeafIns, xu16(0), cell(100))},
			{leaf, encXop(xopLeafIns, xu16(1), cell(200))},
			{leaf, encXop(xopLeafIns, xu16(2), cell(300))},
			{leaf, encXop(xopLeafIns, xu16(3), cell(400))},
			// The root splits: [100 200] | [300 400].
			{leaf, encXop(xopSplit, xu64(right), xu16(2))},
			{root, newRoot(leaf, right)},
			// The right leaf grows by 500, and its entry by a delta.
			{right, encXop(xopLeafIns, xu16(2), cell(500))},
			{root, encXop(xopBump, xu16(1), xu64(500))},
			// It splits: [300] | [400 500].
			{right, encXop(xopSplit, xu64(right2), xu16(1))},
			{root, entry(xopChildSet, 1, right)},
			{root, entry(xopChildIns, 2, right2)},
		}
		for i, s := range steps {
			if err := ReplayOp(get, s.page, s.payload); err != nil {
				t.Fatalf("old=%v step %d: %v", old, i, err)
			}
		}
		n := nodeRef{pages[root]}
		want := []childEntry{{leaf, 300}, {right, 300}, {right2, 900}}
		if n.ncells() != len(want) {
			t.Fatalf("old=%v: root has %d entries, want %d", old, n.ncells(), len(want))
		}
		for i, w := range want {
			if got := n.childCell(i); got != w {
				t.Errorf("old=%v: root entry %d = %+v, want %+v", old, i, got, w)
			}
		}
	}
}
