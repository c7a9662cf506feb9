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

	"repro/internal/redo"
)

// Opcodes, in one block that ends in OpCount: a table sized by OpCount
// has a slot for every opcode. A retired value holds a blank, so no wire
// value moves.
const (
	_            = iota // 0: never written
	OpKeyPut            // 1: restore key → old value in the btree rooted at Hdr
	OpKeyDel            // 2: delete key from the btree rooted at Hdr (undo of a fresh insert)
	OpExtWrite          // 3: overwrite old bytes at Off in object Hdr
	OpExtIns            // 4: re-insert old bytes at Off (undo of a delete-range)
	OpExtDel            // 5: delete N bytes at Off (undo of an append/insert/grow)
	_                   // 6: retired (restored a raw page before-image)
	_                   // 7: retired (destroyed a created object)
	OpReclaim           // 8: take the freed Runs back (undo of a destroy or drop)
	OpBtreeDrop         // 9: drop the btree rooted at Hdr (undo of its creation)
	OpExtentDrop        // 10: destroy object Hdr's extent tree (undo of its creation)
	OpFulltext          // 11: revert a fulltext index's in-memory state (fulltext.Index.Undo)
	OpMetaPut           // 12: restore object Hdr's row fields from Data, keeping its root
	OpCount
)

// Run is one allocator run: the first sector and the sector count a free
// was given.
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
	return redo.EncodeOp(OpKeyPut, redo.U64(hdr), redo.U32(len(key)), key, val)
}

// KeyDel encodes "delete key from tree hdr".
func KeyDel(hdr uint64, key []byte) []byte { return redo.EncodeOp(OpKeyDel, redo.U64(hdr), key) }

// ExtWrite encodes "overwrite old bytes at off in object oid".
func ExtWrite(oid, off uint64, old []byte) []byte {
	return redo.EncodeOp(OpExtWrite, redo.U64(oid), redo.U64(off), old)
}

// ExtIns encodes "re-insert old bytes at off in object oid".
func ExtIns(oid, off uint64, old []byte) []byte {
	return redo.EncodeOp(OpExtIns, redo.U64(oid), redo.U64(off), old)
}

// ExtDel encodes "delete n bytes at off in object oid".
func ExtDel(oid, off, n uint64) []byte {
	return redo.EncodeOp(OpExtDel, redo.U64(oid), redo.U64(off), redo.U64(n))
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
func BtreeDrop(hdr uint64) []byte { return redo.EncodeOp(OpBtreeDrop, redo.U64(hdr)) }

// ExtentDrop encodes "destroy object oid's extent tree".
func ExtentDrop(oid uint64) []byte { return redo.EncodeOp(OpExtentDrop, redo.U64(oid)) }

// MetaPut encodes "restore object oid's row fields from row, keeping the
// root the row holds": row is the old row with an empty root.
func MetaPut(oid uint64, row []byte) []byte { return redo.EncodeOp(OpMetaPut, redo.U64(oid), row) }

// Fulltext encodes "revert the fulltext index's in-memory state".
func Fulltext() []byte { return []byte{OpFulltext} }

// decoders is the undo vocabulary's decoding, indexed by opcode: each
// entry reads its opcode's fields. A retired opcode has no entry.
var decoders = [OpCount]func(r *redo.Reader, op *Op){
	OpKeyPut: func(r *redo.Reader, op *Op) {
		op.Hdr = r.U64()
		op.Key = r.Bytes(uint64(r.U32()))
		op.Data = r.Rest()
	},
	OpKeyDel:   func(r *redo.Reader, op *Op) { op.Hdr, op.Key = r.U64(), r.Rest() },
	OpExtWrite: extData,
	OpExtIns:   extData,
	OpExtDel:   func(r *redo.Reader, op *Op) { op.Hdr, op.Off, op.N = r.U64(), r.U64(), r.U64() },
	OpReclaim: func(r *redo.Reader, op *Op) {
		for r.Len() > 0 {
			op.Runs = append(op.Runs, Run{r.U64(), r.U64()})
		}
	},
	OpBtreeDrop:  hdrOnly,
	OpExtentDrop: hdrOnly,
	OpFulltext:   func(*redo.Reader, *Op) {},
	OpMetaPut:    func(r *redo.Reader, op *Op) { op.Hdr, op.Data = r.U64(), r.Rest() },
}

func extData(r *redo.Reader, op *Op) { op.Hdr, op.Off, op.Data = r.U64(), r.U64(), r.Rest() }

func hdrOnly(r *redo.Reader, op *Op) { op.Hdr = r.U64() }

// Decode parses an undo record body.
func Decode(b []byte) (Op, error) {
	if len(b) == 0 {
		return Op{}, fmt.Errorf("undo: empty record")
	}
	if int(b[0]) >= len(decoders) || decoders[b[0]] == nil {
		return Op{}, fmt.Errorf("undo: unknown opcode %d", b[0])
	}
	op, r := Op{Code: b[0]}, redo.NewReader(b[1:])
	decoders[op.Code](&r, &op)
	if err := r.Err(); err != nil {
		return Op{}, fmt.Errorf("undo: opcode %d: %w", op.Code, err)
	}
	return op, nil
}
