package extent

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/redo"
)

// retiredXops are the opcodes no record carries: each holds a blank in
// the opcode block and has no replay entry.
var retiredXops = map[int]string{
	0:  "never written",
	9:  "grew a root above the old one",
	10: "merged two children through their parent",
	11: "named written data blocks (now redo.KindWrote)",
	12: "pushed a root page down",
	13: "pulled a root page up",
}

// TestReplayTable pins every opcode's wire value and holds replayOps to
// the opcode block: every opcode below xopCount that is not retired has
// an entry, so an opcode added to the block fails here until it has one.
func TestReplayTable(t *testing.T) {
	for _, p := range []struct {
		name      string
		code, val int
	}{
		{"xopInit", xopInit, 1}, {"xopLeafIns", xopLeafIns, 2}, {"xopLeafSet", xopLeafSet, 3},
		{"xopLeafDel", xopLeafDel, 4}, {"xopChildIns", xopChildIns, 5}, {"xopChildSet", xopChildSet, 6},
		{"xopBump", xopBump, 7}, {"xopSplit", xopSplit, 8}, {"xopAbsorb", xopAbsorb, 14},
		{"xopChildDel", xopChildDel, 15},
	} {
		if p.code != p.val {
			t.Errorf("%s = %d on the wire, want %d", p.name, p.code, p.val)
		}
	}
	for code := range replayOps {
		_, retired := retiredXops[code]
		if got := replayOps[code] != nil; got == retired {
			t.Errorf("opcode %d: has entry %v, retired %v", code, got, retired)
		}
	}
}

// node returns an xopInit payload that formats a page: a leaf holding
// extents of the given lengths, or (internal) entries naming children.
func node(typ byte, cells ...[]byte) []byte {
	return redo.EncodeOp(xopInit, append([][]byte{{typ}, redo.U64(77)}, cells...)...)
}

func cell(n uint32) []byte { return encCell(Extent{Sector: 800, Sectors: 8, Len: n}) }

func entry(child uint64) []byte { return append(redo.U64(child), redo.U64(0)...) }

// xopCases holds, for every live opcode, a valid payload for page 1, the
// xopInit payloads that format the pages it replays against, and which of
// its strict prefixes are payloads of their own (xopInit's cells are
// open-ended: fewer whole cells format a smaller page).
var xopCases = map[int]struct {
	payload []byte
	pages   map[uint64][]byte
	whole   func(n int) bool
}{
	xopInit: {node(pageLeaf, cell(1), cell(2)), nil,
		func(n int) bool { return n >= 10 && (n-10)%leafCellSize == 0 }},
	xopLeafIns:  {redo.EncodeOp(xopLeafIns, redo.U16(1), cell(2)), map[uint64][]byte{1: node(pageLeaf, cell(1))}, nil},
	xopLeafSet:  {redo.EncodeOp(xopLeafSet, redo.U16(0), cell(2)), map[uint64][]byte{1: node(pageLeaf, cell(1))}, nil},
	xopLeafDel:  {redo.EncodeOp(xopLeafDel, redo.U16(0)), map[uint64][]byte{1: node(pageLeaf, cell(1))}, nil},
	xopChildIns: {redo.EncodeOp(xopChildIns, redo.U16(1), redo.U64(3)), map[uint64][]byte{1: node(pageInternal, entry(2)), 2: node(pageLeaf, cell(1)), 3: node(pageLeaf, cell(2))}, nil},
	xopChildSet: {redo.EncodeOp(xopChildSet, redo.U16(0), redo.U64(3)), map[uint64][]byte{1: node(pageInternal, entry(2)), 3: node(pageLeaf, cell(2))}, nil},
	xopBump:     {redo.EncodeOp(xopBump, redo.U16(0), redo.U64(5)), map[uint64][]byte{1: node(pageInternal, entry(2))}, nil},
	xopSplit:    {redo.EncodeOp(xopSplit, redo.U64(2), redo.U16(1)), map[uint64][]byte{1: node(pageLeaf, cell(1), cell(2))}, nil},
	xopAbsorb:   {redo.EncodeOp(xopAbsorb, redo.U64(2)), map[uint64][]byte{1: node(pageLeaf, cell(1)), 2: node(pageLeaf, cell(2))}, nil},
	xopChildDel: {redo.EncodeOp(xopChildDel, redo.U16(1)), map[uint64][]byte{1: node(pageInternal, entry(2), entry(3))}, nil},
}

// replayOn formats the pages of init, then replays payload on page 1,
// turning a panic into an error.
func replayOn(init map[uint64][]byte, payload []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	pages := map[uint64][]byte{}
	get := func(pno uint64) ([]byte, error) {
		if pages[pno] == nil {
			pages[pno] = make([]byte, blockdev.DefaultBlockSize)
		}
		return pages[pno], nil
	}
	for pno, p := range init {
		if err := ReplayOp(get, pno, p); err != nil {
			return fmt.Errorf("formatting page %d: %v", pno, err) // not ErrCorrupt: a case whose set-up fails must not pass
		}
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
		c, ok := xopCases[code]
		if !ok {
			t.Errorf("opcode %d has no case", code)
			continue
		}
		if err := replayOn(c.pages, c.payload); err != nil {
			t.Errorf("opcode %d: valid payload: %v", code, err)
		}
		for n := 0; n < len(c.payload); n++ {
			if c.whole != nil && c.whole(n) {
				continue
			}
			if err := replayOn(c.pages, slices.Clone(c.payload[:n])); !errors.Is(err, ErrCorrupt) {
				t.Errorf("opcode %d: %d of %d bytes: got %v, want ErrCorrupt", code, n, len(c.payload), err)
			}
		}
	}
	// An insert into a full node, or past its last cell, is corrupt too.
	full := make([][]byte, (blockdev.DefaultBlockSize-hdrSize-ownerLen)/leafCellSize)
	for i := range full {
		full[i] = cell(uint32(i + 1))
	}
	for _, c := range []struct {
		init    map[uint64][]byte
		payload []byte
	}{
		{map[uint64][]byte{1: node(pageLeaf, full...)}, redo.EncodeOp(xopLeafIns, redo.U16(len(full)), cell(1))},
		{map[uint64][]byte{1: node(pageLeaf, cell(1))}, redo.EncodeOp(xopLeafIns, redo.U16(2), cell(2))},
		{map[uint64][]byte{1: node(pageLeaf, cell(1))}, redo.EncodeOp(xopLeafSet, redo.U16(1), cell(2))},
	} {
		if err := replayOn(c.init, c.payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("out-of-range payload %x: got %v, want ErrCorrupt", c.payload[:3], err)
		}
	}
	rejected := []int{255}
	for code := range retiredXops {
		rejected = append(rejected, code)
	}
	for _, code := range rejected {
		payload := append([]byte{byte(code)}, redo.U64(2)...)
		if err := replayOn(map[uint64][]byte{1: node(pageLeaf, cell(1))}, payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("opcode %d: got %v, want ErrCorrupt", code, err)
		}
	}
}
