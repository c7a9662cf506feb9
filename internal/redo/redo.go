// Package redo defines the physiological redo records shared by the
// pager (which stamps and stages them), the structure layers (btree,
// extent, osd — which emit them), and the WAL (which appends and
// recovers them).
//
// A record is physical to a page and, for structured pages, logical
// within it: it names the page it applies to and carries either the
// page's full image, an absolute byte range, or a typed operation that
// recovery re-executes against the page. Every record is stamped with an
// LSN drawn at mutation time under the page latch, so the global LSN
// order is exactly the order page bytes changed — recovery replays
// committed records in LSN order and reproduces the committed state even
// when transactions committed out of mutation order.
//
// Record kinds (these are also the WAL wire kinds; 2 and 3 are reserved
// by the WAL for commit and checkpoint records):
//
//   - KindImage: Data is the full page image. Used for first-touch base
//     images (an older binary's image-logging mode also wrote them, with
//     LSN 0; recovery still replays those).
//   - KindRange: Data is a u32 page offset followed by the bytes written
//     there. Idempotent absolute overwrite; used for pointer stitches,
//     btree headers, and overflow-page content.
//   - KindBtreeOp: Data is a btree-typed operation (opcode byte plus
//     encoding, defined in package btree) that recovery re-executes via
//     btree.ReplayOp. Because replay re-executes the operation against
//     whatever committed cells the page holds, a committed record never
//     carries a neighbour's uncommitted bytes.
//   - KindExtentOp: Data is an extent-tree-typed operation (opcode byte
//     plus encoding, defined in package extent) replayed via
//     extent.ReplayOp — cell inserts/removes/rewrites, subtree count
//     deltas, and the split/merge/root structure modifications that ride
//     WAL system transactions.
//   - KindAlloc: Page is the first block of a buddy-allocator run and
//     Data names what happened to it: a u8 code (allocated / freed) and
//     the u32 block count the structure layer asked for. The record rides
//     the operation that allocated or freed — committed, chunk-flushed
//     and replayed with it — so recovery rebuilds the allocator from the
//     last checkpoint's snapshot plus the log tail instead of walking the
//     volume.
//   - KindWrote: Page is the first of a run of blocks the operation wrote
//     straight to the device, outside the log, and Data holds one u32
//     sum per block of the run, little-endian. It changes no page: object
//     data and the pages of a built tree (btree.Build) reach the device
//     this way, and recovery holds each block to its logged sum in place
//     of the checkpoint's.
//   - KindBuilt: a KindWrote for the one write of a freshly allocated
//     page of a built tree. Such a block is never rewritten in place, and
//     a freed block waits for the next checkpoint before it is reused, so
//     no later write in the same log tail can touch it: recovery holds it
//     to its logged sum strictly, and content that differs — a lost,
//     misdirected or corrupted write — reads as an error.
package redo

import (
	"encoding/binary"
	"fmt"
)

// Record kinds. Values 2 and 3 are reserved by the WAL (commit,
// checkpoint).
const (
	KindImage    = 1
	KindRange    = 4
	KindBtreeOp  = 5
	KindExtentOp = 6
	// KindUndo carries a logical inverse (package undo encoding) prefixed
	// with the staging transaction's previous undo LSN (u64) — the ARIES
	// prevLSN back-chain. Undo records reach the log only when a
	// transaction's records are flushed before commit (steal, dependency
	// flush); recovery never redoes them, it executes them backward to
	// roll back losers. Page is 0: inverses are position-independent.
	KindUndo = 7
	// KindChunk terminates a mid-transaction flush of one transaction's
	// staged records (steal / cross-transaction dependency). Payload is
	// the u64 txid of the previous chunk of the same transaction (0 for
	// the first). The commit or abort record that eventually terminates
	// the transaction names its last chunk, and recovery resolves the
	// chain backward; an unresolved chain is a loser.
	KindChunk = 8
	// KindAlloc logs one allocator mutation (see EncodeAlloc).
	KindAlloc = 9
	// KindWrote names blocks written outside the log (see WroteSums).
	KindWrote = 10
	// KindBuilt names the pages of a built tree, written once outside
	// the log; its payload is KindWrote's.
	KindBuilt = 11
)

// FlagCLR marks a record as a Compensation Log Record: a redo record
// written while undoing (rolling back) a transaction. CLRs replay like
// their base kind ("repeat history") and are never themselves undone.
const FlagCLR = 0x80

// BaseKind strips FlagCLR, returning the record's replay kind.
func BaseKind(k uint8) uint8 { return k &^ FlagCLR }

// Record is one physiological redo record.
type Record struct {
	LSN  uint64 // mutation-time sequence number; 0 = unstamped (image-mode)
	Page uint64 // page the record applies to (ops may reference others in Data)
	Kind uint8
	Data []byte
}

// Len returns the payload size in bytes (for WAL space accounting).
func (r Record) Len() int { return len(r.Data) }

// EncodeRange builds a KindRange payload: u32 offset | bytes.
func EncodeRange(off int, b []byte) []byte {
	out := make([]byte, 4+len(b))
	binary.LittleEndian.PutUint32(out, uint32(off))
	copy(out[4:], b)
	return out
}

// ApplyRange applies a KindRange payload to page bytes.
func ApplyRange(page, payload []byte) error {
	if len(payload) < 4 {
		return fmt.Errorf("redo: short range payload (%d bytes)", len(payload))
	}
	off := int(binary.LittleEndian.Uint32(payload))
	b := payload[4:]
	if off < 0 || off+len(b) > len(page) {
		return fmt.Errorf("redo: range [%d,%d) outside page of %d bytes", off, off+len(b), len(page))
	}
	copy(page[off:], b)
	return nil
}

// Allocator mutation codes (byte 0 of a KindAlloc payload).
const (
	allocTake = 1
	allocGive = 2
)

// EncodeAlloc builds a KindAlloc payload for a run of n blocks that was
// allocated (free == false) or freed (free == true).
func EncodeAlloc(free bool, n uint64) []byte {
	out := make([]byte, 5)
	out[0] = allocTake
	if free {
		out[0] = allocGive
	}
	binary.LittleEndian.PutUint32(out[1:], uint32(n))
	return out
}

// DecodeAlloc parses a KindAlloc payload.
func DecodeAlloc(payload []byte) (free bool, n uint64, err error) {
	if len(payload) != 5 || (payload[0] != allocTake && payload[0] != allocGive) {
		return false, 0, fmt.Errorf("redo: malformed alloc payload (%d bytes)", len(payload))
	}
	return payload[0] == allocGive, uint64(binary.LittleEndian.Uint32(payload[1:])), nil
}

// WroteSums calls fn with each block a KindWrote or KindBuilt record names, from
// first on, and the sum the block was written with. A payload that is not
// a whole number of sums, or none, is malformed.
func WroteSums(first uint64, payload []byte, fn func(block uint64, sum uint32)) error {
	if len(payload) == 0 || len(payload)%4 != 0 {
		return fmt.Errorf("redo: malformed wrote payload (%d bytes)", len(payload))
	}
	for b := payload; len(b) > 0; b = b[4:] {
		fn(first, binary.LittleEndian.Uint32(b))
		first++
	}
	return nil
}
