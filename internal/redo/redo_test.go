package redo

import (
	"bytes"
	"errors"
	"testing"
)

// TestKindValues pins every record kind's wire value: the WAL writes
// them, and a log written by one build is replayed by the next.
func TestKindValues(t *testing.T) {
	for _, p := range []struct {
		name      string
		kind, val int
	}{
		{"KindImage", KindImage, 1}, {"KindRange", KindRange, 4}, {"KindBtreeOp", KindBtreeOp, 5},
		{"KindExtentOp", KindExtentOp, 6}, {"KindUndo", KindUndo, 7}, {"KindChunk", KindChunk, 8},
		{"KindAlloc", KindAlloc, 9}, {"KindWrote", KindWrote, 10}, {"KindBuilt", KindBuilt, 11},
		{"KindCount", KindCount, 12},
	} {
		if p.kind != p.val {
			t.Errorf("%s = %d on the wire, want %d", p.name, p.kind, p.val)
		}
	}
}

// TestReaderRoundTrip reads back what EncodeOp wrote, field by field.
func TestReaderRoundTrip(t *testing.T) {
	b := EncodeOp(9, U16(513), U64(1<<40+3), Key([]byte("key")), []byte{1, 2, 3, 4}, []byte("rest"))
	r := NewReader(b)
	if c, u16, u64, k, u32, rest := r.U8(), r.U16(), r.U64(), r.Key(), r.U32(), r.Rest(); c != 9 || u16 != 513 ||
		u64 != 1<<40+3 || string(k) != "key" || u32 != 0x04030201 || string(rest) != "rest" {
		t.Fatalf("read %d %d %d %q %#x %q", c, u16, u64, k, u32, rest)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Len())
	}
}

// TestReaderShortIsSticky: the first field that runs past the end
// latches ErrShort, and it and every later field read as zero.
func TestReaderShortIsSticky(t *testing.T) {
	r := NewReader(EncodeOp(1, Key(bytes.Repeat([]byte{'k'}, 5)))[:4])
	if r.U8() != 1 || r.Err() != nil {
		t.Fatal("opcode misread")
	}
	if k := r.Key(); k != nil || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("key of 5 in 2 bytes: %q, %v", k, r.Err())
	}
	if r.U8() != 0 || r.U64() != 0 || r.Uvarint() != 0 || r.Rest() != nil || r.Len() != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Fatal("reads after a short field are not zero")
	}
	r = NewReader([]byte{0x80})
	if r.Uvarint() != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("truncated uvarint: %v", r.Err())
	}
}
