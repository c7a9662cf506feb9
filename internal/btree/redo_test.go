package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/redo"
)

// retiredOps are the opcodes no record carries: each holds a blank in the
// opcode block and has no replay entry.
var retiredOps = map[int]string{0: "never written", 1: "formatted a created tree's root leaf"}

// TestReplayTable pins every opcode's wire value and holds replayOps to
// the opcode block: every opcode below opCount that is not retired has an
// entry, so an opcode added to the block fails here until it has one.
func TestReplayTable(t *testing.T) {
	for _, p := range []struct {
		name      string
		code, val int
	}{
		{"opPut", opPut, 2}, {"opDel", opDel, 3}, {"opRedirect", opRedirect, 4},
		{"opSplitLeaf", opSplitLeaf, 5}, {"opSplitInternal", opSplitInternal, 6},
		{"opNewRoot", opNewRoot, 7}, {"opMerge", opMerge, 8},
	} {
		if p.code != p.val {
			t.Errorf("%s = %d on the wire, want %d", p.name, p.code, p.val)
		}
	}
	for code := range replayOps {
		_, retired := retiredOps[code]
		if got := replayOps[code] != nil; got == retired {
			t.Errorf("opcode %d: has entry %v, retired %v", code, got, retired)
		}
	}
}

// leafPage and internalPage build the pages a case replays against.
func leafPage(keys ...string) []byte {
	p := initPage(make([]byte, blockdev.DefaultBlockSize), pageLeaf)
	for i, k := range keys {
		p.insertRaw(i, encodeLeafCell(nil, []byte(k), []byte("v"+k), 0, 0))
	}
	return p.data
}

func internalPage(rightmost uint64, keys []string, children ...uint64) []byte {
	p := initPage(make([]byte, blockdev.DefaultBlockSize), pageInternal)
	for i, k := range keys {
		p.insertRaw(i, encodeInternalCell(nil, []byte(k), children[i]))
	}
	p.setPtrA(rightmost)
	return p.data
}

// replayCases holds, for every live opcode, a valid payload for page 1,
// the pages it replays against, and which of its strict prefixes are
// payloads of their own (an open-ended last field: a shorter key is
// another key).
var replayCases = map[int]struct {
	payload []byte
	pages   func() map[uint64][]byte
	whole   func(n int) bool
}{
	opPut: {redo.EncodeOp(opPut, encodeLeafCell(nil, []byte("b"), []byte("val"), 0, 0)),
		func() map[uint64][]byte { return map[uint64][]byte{1: leafPage("a")} }, nil},
	opDel: {redo.EncodeOp(opDel, []byte("b")),
		func() map[uint64][]byte { return map[uint64][]byte{1: leafPage("a", "b")} },
		func(n int) bool { return n >= 1 }},
	opRedirect: {redo.EncodeOp(opRedirect, redo.Key([]byte("k")), redo.U64(7)),
		func() map[uint64][]byte { return map[uint64][]byte{1: internalPage(6, []string{"k"}, 5)} }, nil},
	opSplitLeaf: {redo.EncodeOp(opSplitLeaf, redo.U64(2), redo.Key([]byte("b"))),
		func() map[uint64][]byte { return map[uint64][]byte{1: leafPage("a", "b", "c")} }, nil},
	opSplitInternal: {redo.EncodeOp(opSplitInternal, redo.U64(2), redo.U64(13), redo.Key([]byte("c"))),
		func() map[uint64][]byte { return map[uint64][]byte{1: internalPage(12, []string{"b", "d"}, 10, 11)} }, nil},
	opNewRoot: {redo.EncodeOp(opNewRoot, redo.U64(2), redo.U64(3), redo.Key([]byte("m"))),
		func() map[uint64][]byte { return map[uint64][]byte{} }, nil},
	opMerge: {redo.EncodeOp(opMerge, redo.U64(2), redo.U64(3)),
		func() map[uint64][]byte {
			return map[uint64][]byte{1: internalPage(3, []string{"m"}, 2), 2: leafPage("a"), 3: leafPage("z")}
		}, nil},
}

// replayOn replays payload on page 1 of pages, turning a panic into an
// error.
func replayOn(pages map[uint64][]byte, payload []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	get := func(pno uint64) ([]byte, error) {
		if pages[pno] == nil {
			pages[pno] = make([]byte, blockdev.DefaultBlockSize)
		}
		return pages[pno], nil
	}
	return ReplayOp(get, 1, payload)
}

// TestReplayRejectsBadPayloads: for every live opcode a valid payload
// replays, and each strict prefix that cuts a field short is ErrCorrupt,
// never a panic; a retired opcode, and 255, are ErrCorrupt too.
func TestReplayRejectsBadPayloads(t *testing.T) {
	for code := range replayOps {
		if replayOps[code] == nil {
			continue
		}
		c, ok := replayCases[code]
		if !ok {
			t.Errorf("opcode %d has no case", code)
			continue
		}
		if err := replayOn(c.pages(), c.payload); err != nil {
			t.Errorf("opcode %d: valid payload: %v", code, err)
		}
		for n := 0; n < len(c.payload); n++ {
			if c.whole != nil && c.whole(n) {
				continue
			}
			if err := replayOn(c.pages(), slices.Clone(c.payload[:n])); !errors.Is(err, ErrCorrupt) {
				t.Errorf("opcode %d: %d of %d bytes: got %v, want ErrCorrupt", code, n, len(c.payload), err)
			}
		}
	}
	rejected := []int{255}
	for code := range retiredOps {
		rejected = append(rejected, code)
	}
	for _, code := range rejected {
		payload := append([]byte{byte(code)}, redo.U64(2)...)
		if err := replayOn(map[uint64][]byte{1: leafPage("a")}, payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("opcode %d: got %v, want ErrCorrupt", code, err)
		}
	}
}

// splitLeafByCopies re-partitions a leaf the plain way, through one
// allocated copy per cell: the reference replaySplitLeaf's rebuild from
// a single page copy must match byte for byte, so that a log replays to
// the same pages whichever of the two runs it.
func splitLeafByCopies(left, right, sep []byte, leftPno, rightPno uint64) {
	lp := pageRef{left}
	var keep, move [][]byte
	for i := 0; i < lp.ncells(); i++ {
		off := lp.slot(i)
		raw := slices.Clone(lp.data[off : off+lp.cellLenAt(off)])
		if bytes.Compare(decodeKeyFromRaw(raw), sep) <= 0 {
			keep = append(keep, raw)
		} else {
			move = append(move, raw)
		}
	}
	oldNext, oldPrev := lp.ptrA(), lp.ptrB()
	lp = initPage(left, pageLeaf)
	for i, raw := range keep {
		lp.insertRaw(i, raw)
	}
	rp := initPage(right, pageLeaf)
	for i, raw := range move {
		rp.insertRaw(i, raw)
	}
	rp.setPtrA(oldNext)
	rp.setPtrB(leftPno)
	lp.setPtrA(rightPno)
	lp.setPtrB(oldPrev)
}

// TestReplaySplitLeafMatchesCopies replays leaf splits of random leaves
// (cells of mixed sizes, some removed so that the cell area holds
// fragments and its order differs from the slots') around random
// separators, onto right pages full of stale bytes, and holds both pages
// to the reference byte for byte.
func TestReplaySplitLeafMatchesCopies(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for round := 0; round < 300; round++ {
		p := initPage(make([]byte, blockdev.DefaultBlockSize), pageLeaf)
		p.setPtrA(uint64(rng.IntN(100)))
		p.setPtrB(uint64(rng.IntN(100)))
		var keys []string
		for {
			k := fmt.Sprintf("k%05d", rng.IntN(100000))
			i, found := slices.BinarySearch(keys, k)
			if found {
				continue
			}
			val := make([]byte, rng.IntN(200))
			for j := range val {
				val[j] = byte(rng.Uint32())
			}
			if !p.insertRaw(i, encodeLeafCell(nil, []byte(k), val, 0, 0)) {
				break
			}
			keys = slices.Insert(keys, i, k)
		}
		for j := rng.IntN(len(keys) / 2); j > 0; j-- {
			i := rng.IntN(len(keys))
			p.removeCell(i)
			keys = slices.Delete(keys, i, i+1)
		}
		right := make([]byte, blockdev.DefaultBlockSize)
		for j := range right {
			right[j] = byte(rng.Uint32())
		}
		var sep []byte
		switch rng.IntN(4) {
		case 0:
			sep = []byte("k") // every cell moves
		case 1:
			sep = []byte("l") // no cell moves
		default:
			sep = []byte(fmt.Sprintf("k%05d", rng.IntN(100000)))
		}

		wantL, wantR := slices.Clone(p.data), slices.Clone(right)
		splitLeafByCopies(wantL, wantR, sep, 1, 2)
		pages := map[uint64][]byte{1: p.data, 2: right}
		if err := replayOn(pages, redo.EncodeOp(opSplitLeaf, redo.U64(2), redo.Key(sep))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(pages[1], wantL) || !bytes.Equal(pages[2], wantR) {
			t.Fatalf("round %d: %d cells split at %q: pages differ from the reference", round, len(keys), sep)
		}
	}
}
