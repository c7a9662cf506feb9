// Package undo defines the logical inverse records ("undo records") the
// structure layers capture alongside their physiological redo records.
//
// Where a redo record says how to repeat a page edit, an undo record
// says how to take the *operation* back: restore a key's old value,
// delete the key an insert created, re-insert the byte range a delete
// removed. Inverses are addressed by structure (a btree's header page or
// the OID of the object an extent tree backs, a key, a byte offset),
// never by cell position, so executing them is correct regardless of how
// rebalances or a steal-evicted page moved the physical bytes in between
// — the same position independence the redo vocabulary already has.
//
// An object's row in the object table holds the root of its extent tree,
// which a neighbour's split may rewrite before an operation rolls back.
// So no inverse of a row edit carries the root: the Ext* inverses take
// the tree back through the live object, which rewrites the row from the
// tree, and MetaPut restores the row's other fields around whatever root
// the row holds by then.
//
// Undo records stay in memory with their operation and reach the log
// only when an uncommitted transaction's records are flushed early
// (steal, cross-transaction dependency). At abort or loser recovery the
// inverses are executed newest-first through the live structure APIs,
// which capture ordinary redo records flagged as CLRs (redo.FlagCLR).
//
// Encodings are one opcode byte followed by little-endian fields:
//
//	KeyPut:     1 | hdr u64 | klen u32 | key | old value
//	KeyDel:     2 | hdr u64 | key
//	ExtWrite:   3 | oid u64 | off u64 | old bytes
//	ExtIns:     4 | oid u64 | off u64 | old bytes
//	ExtDel:     5 | oid u64 | off u64 | n u64
//	Reclaim:    8 | (addr u64 | n u64)...
//	BtreeDrop:  9 | hdr u64
//	ExtentDrop: 10 | oid u64
//	Fulltext:   11
//	MetaPut:    12 | oid u64 | old row, its root empty
//
// Opcode 7 (destroy a created object) is retired: the inverses of the
// object's extent-tree creation and meta-row insert take it back. So is
// opcode 6 (restore a raw before-image of a page), whose one user was
// the object metadata copy an extent tree's header page once kept.
package undo

import (
	"encoding/binary"
	"fmt"
)

// Opcodes.
const (
	OpKeyPut     = 1  // restore key → old value in the btree rooted at Hdr
	OpKeyDel     = 2  // delete key from the btree rooted at Hdr (undo of a fresh insert)
	OpExtWrite   = 3  // overwrite old bytes at Off in object Hdr
	OpExtIns     = 4  // re-insert old bytes at Off (undo of a delete-range)
	OpExtDel     = 5  // delete N bytes at Off (undo of an append/insert/grow)
	OpReclaim    = 8  // take the freed Runs back (undo of a destroy or drop)
	OpBtreeDrop  = 9  // drop the btree rooted at Hdr (undo of its creation)
	OpExtentDrop = 10 // destroy object Hdr's extent tree (undo of its creation)
	OpFulltext   = 11 // revert a fulltext index's in-memory state (fulltext.Index.Undo)
	OpMetaPut    = 12 // restore object Hdr's row fields from Data, keeping its root
)

// Run is one allocator run: the address and block count a free was given.
type Run struct{ Addr, N uint64 }

// Op is one decoded undo record.
type Op struct {
	Code byte
	Hdr  uint64 // btree header page (KeyPut/KeyDel/BtreeDrop) or object ID (Ext*/ExtentDrop/MetaPut)
	Off  uint64 // byte offset within the object (Ext*)
	N    uint64 // byte count (ExtDel)
	Key  []byte // btree key (KeyPut/KeyDel)
	Data []byte // old value / old bytes / old row (KeyPut/ExtWrite/ExtIns/MetaPut)
	Runs []Run  // runs to take back (Reclaim)
}

// KeyPut encodes "restore key → old value in tree hdr".
func KeyPut(hdr uint64, key, val []byte) []byte {
	out := make([]byte, 1+8+4+len(key)+len(val))
	out[0] = OpKeyPut
	binary.LittleEndian.PutUint64(out[1:], hdr)
	binary.LittleEndian.PutUint32(out[9:], uint32(len(key)))
	copy(out[13:], key)
	copy(out[13+len(key):], val)
	return out
}

// KeyDel encodes "delete key from tree hdr".
func KeyDel(hdr uint64, key []byte) []byte {
	out := make([]byte, 1+8+len(key))
	out[0] = OpKeyDel
	binary.LittleEndian.PutUint64(out[1:], hdr)
	copy(out[9:], key)
	return out
}

func extBytes(code byte, hdr, off uint64, data []byte) []byte {
	out := make([]byte, 1+8+8+len(data))
	out[0] = code
	binary.LittleEndian.PutUint64(out[1:], hdr)
	binary.LittleEndian.PutUint64(out[9:], off)
	copy(out[17:], data)
	return out
}

// ExtWrite encodes "overwrite old bytes at off in object oid".
func ExtWrite(oid, off uint64, old []byte) []byte { return extBytes(OpExtWrite, oid, off, old) }

// ExtIns encodes "re-insert old bytes at off in object oid".
func ExtIns(oid, off uint64, old []byte) []byte { return extBytes(OpExtIns, oid, off, old) }

// ExtDel encodes "delete n bytes at off in object oid".
func ExtDel(oid, off, n uint64) []byte {
	out := make([]byte, 1+8+8+8)
	out[0] = OpExtDel
	binary.LittleEndian.PutUint64(out[1:], oid)
	binary.LittleEndian.PutUint64(out[9:], off)
	binary.LittleEndian.PutUint64(out[17:], n)
	return out
}

// Reclaim encodes "take these freed runs back". A destroy stages it
// before it frees anything, so the rollback finds every run it names in
// limbo (or, at recovery, wherever the replayed frees left it).
func Reclaim(runs []Run) []byte {
	out := make([]byte, 1, 1+16*len(runs))
	out[0] = OpReclaim
	for _, r := range runs {
		out = binary.LittleEndian.AppendUint64(out, r.Addr)
		out = binary.LittleEndian.AppendUint64(out, r.N)
	}
	return out
}

// BtreeDrop encodes "drop the btree rooted at hdr".
func BtreeDrop(hdr uint64) []byte { return hdrOnly(OpBtreeDrop, hdr) }

// ExtentDrop encodes "destroy object oid's extent tree".
func ExtentDrop(oid uint64) []byte { return hdrOnly(OpExtentDrop, oid) }

// MetaPut encodes "restore object oid's row fields from row, keeping the
// root the row holds": row is the old row with an empty root.
func MetaPut(oid uint64, row []byte) []byte {
	out := hdrOnly(OpMetaPut, oid)
	return append(out, row...)
}

func hdrOnly(code byte, hdr uint64) []byte {
	out := make([]byte, 1+8)
	out[0] = code
	binary.LittleEndian.PutUint64(out[1:], hdr)
	return out
}

// Fulltext encodes "revert the fulltext index's in-memory state".
func Fulltext() []byte { return []byte{OpFulltext} }

// Decode parses an undo record body.
func Decode(b []byte) (Op, error) {
	if len(b) < 1 || (len(b) < 9 && b[0] != OpReclaim && b[0] != OpFulltext) {
		return Op{}, fmt.Errorf("undo: short record (%d bytes)", len(b))
	}
	op := Op{Code: b[0]}
	switch op.Code {
	case OpKeyPut:
		if len(b) < 13 {
			return Op{}, fmt.Errorf("undo: short KeyPut (%d bytes)", len(b))
		}
		op.Hdr = binary.LittleEndian.Uint64(b[1:])
		klen := int(binary.LittleEndian.Uint32(b[9:]))
		if 13+klen > len(b) {
			return Op{}, fmt.Errorf("undo: KeyPut key overruns record")
		}
		op.Key = b[13 : 13+klen]
		op.Data = b[13+klen:]
	case OpKeyDel:
		op.Hdr = binary.LittleEndian.Uint64(b[1:])
		op.Key = b[9:]
	case OpMetaPut:
		op.Hdr = binary.LittleEndian.Uint64(b[1:])
		op.Data = b[9:]
	case OpExtWrite, OpExtIns:
		if len(b) < 17 {
			return Op{}, fmt.Errorf("undo: short extent record (%d bytes)", len(b))
		}
		op.Hdr = binary.LittleEndian.Uint64(b[1:])
		op.Off = binary.LittleEndian.Uint64(b[9:])
		op.Data = b[17:]
	case OpExtDel:
		if len(b) < 25 {
			return Op{}, fmt.Errorf("undo: short ExtDel (%d bytes)", len(b))
		}
		op.Hdr = binary.LittleEndian.Uint64(b[1:])
		op.Off = binary.LittleEndian.Uint64(b[9:])
		op.N = binary.LittleEndian.Uint64(b[17:])
	case OpReclaim:
		if (len(b)-1)%16 != 0 {
			return Op{}, fmt.Errorf("undo: Reclaim of %d bytes is not whole runs", len(b)-1)
		}
		for p := b[1:]; len(p) > 0; p = p[16:] {
			op.Runs = append(op.Runs, Run{binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])})
		}
	case OpBtreeDrop, OpExtentDrop:
		op.Hdr = binary.LittleEndian.Uint64(b[1:])
	case OpFulltext:
	default:
		return Op{}, fmt.Errorf("undo: unknown opcode %d", op.Code)
	}
	return op, nil
}
