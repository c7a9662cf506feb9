package btree

import (
	"errors"
	"fmt"
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
