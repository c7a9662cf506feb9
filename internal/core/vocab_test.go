package core

import (
	"errors"
	"testing"

	"repro/internal/redo"
	"repro/internal/undo"
)

// TestReplayKindsTable holds replayKinds to the redo kind block: every
// kind below redo.KindCount that is neither retired nor the WAL's own has
// an entry, so a kind added to the block fails here until it has one; a
// kind without one, or past the table, is ErrBadSuperblock, not a panic.
func TestReplayKindsTable(t *testing.T) {
	none := map[int]string{0: "never written", 2: "the WAL's commit record", 3: "the WAL's checkpoint record"}
	for kind := range replayKinds {
		_, skip := none[kind]
		if got := replayKinds[kind] != nil; got == skip {
			t.Errorf("redo kind %d: has entry %v, reserved %v", kind, got, skip)
		}
	}
	x := &replayer{}
	for _, kind := range []uint8{0, 2, 3, redo.KindUndo, redo.KindChunk, redo.KindCount, 255} {
		if err := x.replay(redo.Record{Kind: kind}); !errors.Is(err, ErrBadSuperblock) {
			t.Errorf("redo kind %d: got %v, want ErrBadSuperblock", kind, err)
		}
	}
}

// TestUndoOpsTable holds undoOps to the undo opcode block: every opcode
// undo.Decode decodes has an entry here, and a retired one, or one past
// the table, is an error, not a panic.
func TestUndoOpsTable(t *testing.T) {
	retired := map[int]bool{0: true, 6: true, 7: true}
	for code := range undoOps {
		if got := undoOps[code] != nil; got == retired[code] {
			t.Errorf("undo opcode %d: has entry %v, retired %v", code, got, retired[code])
		}
	}
	v := &Volume{}
	for _, code := range []uint8{0, 6, 7, undo.OpCount, 255} {
		if err := v.applyUndo(nil, undo.Op{Code: code}); err == nil {
			t.Errorf("undo opcode %d applied", code)
		}
	}
}
