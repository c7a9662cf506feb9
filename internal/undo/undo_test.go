package undo

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// retired are the opcodes no record carries: each holds a blank in the
// opcode block and has no decoder.
var retired = map[int]string{0: "never written", 6: "restored a raw page before-image", 7: "destroyed a created object"}

// TestDecodeTable pins every opcode's wire value and holds decoders to
// the opcode block: every opcode below OpCount that is not retired has a
// decoder, so an opcode added to the block fails here until it has one.
func TestDecodeTable(t *testing.T) {
	for _, p := range []struct {
		name      string
		code, val int
	}{
		{"OpKeyPut", OpKeyPut, 1}, {"OpKeyDel", OpKeyDel, 2}, {"OpExtWrite", OpExtWrite, 3},
		{"OpExtIns", OpExtIns, 4}, {"OpExtDel", OpExtDel, 5}, {"OpReclaim", OpReclaim, 8},
		{"OpBtreeDrop", OpBtreeDrop, 9}, {"OpExtentDrop", OpExtentDrop, 10},
		{"OpFulltext", OpFulltext, 11}, {"OpMetaPut", OpMetaPut, 12},
	} {
		if p.code != p.val {
			t.Errorf("%s = %d on the wire, want %d", p.name, p.code, p.val)
		}
	}
	for code := range decoders {
		_, gone := retired[code]
		if got := decoders[code] != nil; got == gone {
			t.Errorf("opcode %d: has decoder %v, retired %v", code, got, gone)
		}
	}
}

// cases holds, for every live opcode, a record from its encoder, the Op
// it decodes to, and which of its strict prefixes are records of their
// own (an open-ended last field: fewer old bytes, a shorter key, fewer
// whole runs).
var cases = map[int]struct {
	rec   []byte
	want  Op
	whole func(n int) bool
}{
	OpKeyPut: {KeyPut(7, []byte("key"), []byte("old")), Op{Code: OpKeyPut, Hdr: 7, Key: []byte("key"), Data: []byte("old")},
		func(n int) bool { return n >= 16 }},
	OpKeyDel: {KeyDel(7, []byte("key")), Op{Code: OpKeyDel, Hdr: 7, Key: []byte("key")},
		func(n int) bool { return n >= 9 }},
	OpExtWrite: {ExtWrite(7, 4096, []byte("old")), Op{Code: OpExtWrite, Hdr: 7, Off: 4096, Data: []byte("old")},
		func(n int) bool { return n >= 17 }},
	OpExtIns: {ExtIns(7, 4096, []byte("old")), Op{Code: OpExtIns, Hdr: 7, Off: 4096, Data: []byte("old")},
		func(n int) bool { return n >= 17 }},
	OpExtDel: {ExtDel(7, 4096, 10), Op{Code: OpExtDel, Hdr: 7, Off: 4096, N: 10}, nil},
	OpReclaim: {Reclaim([]Run{{100, 4}, {200, 1}}), Op{Code: OpReclaim, Runs: []Run{{100, 4}, {200, 1}}},
		func(n int) bool { return n >= 1 && (n-1)%16 == 0 }},
	OpBtreeDrop:  {BtreeDrop(7), Op{Code: OpBtreeDrop, Hdr: 7}, nil},
	OpExtentDrop: {ExtentDrop(7), Op{Code: OpExtentDrop, Hdr: 7}, nil},
	OpFulltext:   {Fulltext(), Op{Code: OpFulltext}, nil},
	OpMetaPut: {MetaPut(7, []byte("row")), Op{Code: OpMetaPut, Hdr: 7, Data: []byte("row")},
		func(n int) bool { return n >= 9 }},
}

// decode runs Decode, turning a panic into an error.
func decode(b []byte) (op Op, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return Decode(b)
}

// TestDecodeRejectsBadRecords: every live opcode's encoder round-trips
// through Decode, and each strict prefix that cuts a field short is an
// error, never a panic; a retired opcode, and 255, are errors too.
func TestDecodeRejectsBadRecords(t *testing.T) {
	for code := range decoders {
		if decoders[code] == nil {
			continue
		}
		c, ok := cases[code]
		if !ok {
			t.Errorf("opcode %d has no case", code)
			continue
		}
		if got, err := decode(c.rec); err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("opcode %d: decoded %+v, %v; want %+v", code, got, err, c.want)
		}
		for n := 0; n < len(c.rec); n++ {
			if c.whole != nil && c.whole(n) {
				continue
			}
			if _, err := decode(slices.Clone(c.rec[:n])); err == nil {
				t.Errorf("opcode %d: %d of %d bytes decoded", code, n, len(c.rec))
			}
		}
	}
	rejected := []int{255}
	for code := range retired {
		rejected = append(rejected, code)
	}
	for _, code := range rejected {
		if _, err := decode(append([]byte{byte(code)}, make([]byte, 24)...)); err == nil {
			t.Errorf("opcode %d decoded", code)
		}
	}
}
