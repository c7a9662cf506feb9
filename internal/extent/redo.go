// Physiological redo for extent-tree pages: typed per-page operations
// that recovery re-executes instead of replaying whole page images.
//
// Extent trees are object-private (one mutator lock serializes every
// writer of a tree), so unlike btree pages they are never interleaved by
// concurrent transactions. The records here log the logical mutation of
// the pages below the root; the root itself has no page and no records —
// its anchor (the object's row) takes it whole at the end of each call:
//
//   - Per-operation records (replayed only if the operation's records
//     reached the log): leaf-cell inserts, removes and rewrites addressed
//     by cell index, subtree byte-count deltas on internal nodes, and node
//     splits and the root's push-down. Splits are *sum-preserving* — the
//     tree splits a full node around its own midpoint first, then
//     re-descends and inserts its cell as an ordinary record — and their
//     records carry no sums: replay derives each parent entry from the
//     child it has rebuilt.
//   - System-transaction records (auto-committed via wal.AppendSystem the
//     moment they happen): merges and the root's pull-up, which run after
//     the deleting operation committed (pager.Op.Defer), so replay can
//     never pack an undeleted cell plus a whole sibling into one page.
//
// Replay applies records in global LSN order onto pages materialized
// from their first-touch base images (or zeroes, for fresh pages a
// split/init record rebuilds from scratch), so each record re-executes
// against exactly the state the preceding records built.
//
// Op payloads (first byte is the opcode; all integers little-endian):
//
//	xopInit     typ u8 | owner u64 | cell 16B... (a fresh page holding
//	                                          these cells: a pushed-down root)
//	xopLeafIns  idx u16 | cell 16B            (shift right, store)
//	xopLeafSet  idx u16 | cell 16B            (overwrite in place)
//	xopLeafDel  idx u16                       (shift left)
//	xopChildIns idx u16 | child u64           (entry's bytes: the child's sum)
//	xopChildSet idx u16 | child u64           (likewise)
//	xopChildDel idx u16                       (shift left)
//	xopBump     idx u16 | delta u64           (two's complement add to bytes)
//	xopSplit    right u64 | at u16            (cells [at,n) move to right;
//	                                           leaf pages also stitch the chain)
//	xopAbsorb   right u64                     (right's cells append to the
//	                                           page; a leaf takes right's next)
//
// Opcodes 9, 10, 12 and 13 are retired: they grew a root above the old
// one, merged two children through their parent, and pushed a root page
// down and pulled it up, in older formats whose roots had pages. So is
// opcode 11, which named the data blocks an operation wrote: that is a
// redo.KindWrote record now, which built btree pages share; the volume
// format that retired it refuses older logs.
package extent

import (
	"encoding/binary"
	"fmt"
)

// Extent redo opcodes (payload byte 0 of a redo.KindExtentOp record).
const (
	xopInit     = 1
	xopLeafIns  = 2
	xopLeafSet  = 3
	xopLeafDel  = 4
	xopChildIns = 5
	xopChildSet = 6
	xopBump     = 7
	xopSplit    = 8
	xopAbsorb   = 14
	xopChildDel = 15
)

func encCell(e Extent) []byte {
	var b [leafCellSize]byte
	binary.LittleEndian.PutUint64(b[:], e.Alloc)
	binary.LittleEndian.PutUint32(b[8:], e.AllocBlocks)
	binary.LittleEndian.PutUint32(b[12:], e.Len)
	return b[:]
}

func decCell(b []byte) Extent {
	return Extent{
		Alloc:       binary.LittleEndian.Uint64(b),
		AllocBlocks: binary.LittleEndian.Uint32(b[8:]),
		Len:         binary.LittleEndian.Uint32(b[12:]),
	}
}

func encXop(code byte, parts ...[]byte) []byte {
	n := 1
	for _, p := range parts {
		n += len(p)
	}
	out := make([]byte, 1, n)
	out[0] = code
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func xu16(v int) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(v))
	return b[:]
}

func xu64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// errXReplay wraps replay decoding/execution failures.
func errXReplay(format string, args ...any) error {
	return fmt.Errorf("%w: replay: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

func xTakeU16(b []byte) (int, []byte, error) {
	if len(b) < 2 {
		return 0, nil, errXReplay("short u16")
	}
	return int(binary.LittleEndian.Uint16(b)), b[2:], nil
}

func xTakeU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, errXReplay("short u64")
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

func xTakeCell(b []byte) (Extent, []byte, error) {
	if len(b) < leafCellSize {
		return Extent{}, nil, errXReplay("short cell")
	}
	return decCell(b), b[leafCellSize:], nil
}

// subtreeBytes is the byte total under page pno as replay has built it.
// Split records carry no sums: a split is redone whether or not the
// operation that filled the node commits, so the sums it saw at run time
// may count cells the log dropped. The halves themselves hold exactly
// what the log kept.
func subtreeBytes(get func(pno uint64) ([]byte, error), pno uint64) (uint64, error) {
	d, err := get(pno)
	if err != nil {
		return 0, err
	}
	n := nodeRef{d}
	if t := n.typ(); t != pageLeaf && t != pageInternal {
		return 0, errXReplay("split child %d is page type %d", pno, t)
	}
	return n.sum(), nil
}

// cellBytes returns the raw cell region [i, j) of a node (leaf and
// internal cells share the 16-byte size).
func cellBytes(n nodeRef, i, j int) []byte {
	return n.data[hdrSize+i*leafCellSize : hdrSize+j*leafCellSize]
}

// ReplayOp re-executes one extent redo op against raw page bytes
// obtained through get (which materializes pages from their home
// locations, base images, and earlier replayed records). pageNo is the
// record's page; ops that span pages (splits, merges, root growth)
// fetch the others through get.
func ReplayOp(get func(pno uint64) ([]byte, error), pageNo uint64, payload []byte) error {
	if len(payload) == 0 {
		return errXReplay("empty op payload")
	}
	code, b := payload[0], payload[1:]
	data, err := get(pageNo)
	if err != nil {
		return err
	}
	n := nodeRef{data}

	switch code {
	case xopInit:
		if len(b) < 9 || (len(b)-9)%leafCellSize != 0 || hdrSize+len(b)-9 > len(data)-ownerLen {
			return errXReplay("xopInit payload of %d bytes", len(b))
		}
		n = initNode(data, b[0], binary.LittleEndian.Uint64(b[1:]))
		cnt := (len(b) - 9) / leafCellSize
		copy(cellBytes(n, 0, cnt), b[9:])
		n.setNCells(cnt)
		return nil

	case xopLeafIns:
		idx, rest, err := xTakeU16(b)
		if err != nil {
			return err
		}
		e, _, err := xTakeCell(rest)
		if err != nil {
			return err
		}
		cnt := n.ncells()
		if idx > cnt || hdrSize+(cnt+1)*leafCellSize > len(data)-ownerLen {
			return errXReplay("leaf insert at %d of %d on page %d", idx, cnt, pageNo)
		}
		n.insertLeafCell(idx, e)
		return nil

	case xopLeafSet:
		idx, rest, err := xTakeU16(b)
		if err != nil {
			return err
		}
		e, _, err := xTakeCell(rest)
		if err != nil {
			return err
		}
		if idx >= n.ncells() {
			return errXReplay("leaf set at %d of %d on page %d", idx, n.ncells(), pageNo)
		}
		n.setLeafCell(idx, e)
		return nil

	case xopLeafDel:
		idx, _, err := xTakeU16(b)
		if err != nil {
			return err
		}
		if idx >= n.ncells() {
			return errXReplay("leaf delete at %d of %d on page %d", idx, n.ncells(), pageNo)
		}
		n.removeLeafCell(idx)
		return nil

	case xopChildDel:
		idx, _, err := xTakeU16(b)
		if err != nil {
			return err
		}
		if idx >= n.ncells() {
			return errXReplay("child delete at %d of %d on page %d", idx, n.ncells(), pageNo)
		}
		n.removeChildCell(idx)
		return nil

	case xopChildIns, xopChildSet:
		idx, rest, err := xTakeU16(b)
		if err != nil {
			return err
		}
		child, _, err := xTakeU64(rest)
		if err != nil {
			return err
		}
		cnt := n.ncells()
		if code == xopChildSet && idx >= cnt {
			return errXReplay("child set at %d of %d on page %d", idx, cnt, pageNo)
		}
		if code == xopChildIns && (idx > cnt || hdrSize+(cnt+1)*internalCellSize > len(data)-ownerLen) {
			return errXReplay("child insert at %d of %d on page %d", idx, cnt, pageNo)
		}
		bytes, err := subtreeBytes(get, child)
		if err != nil {
			return err
		}
		if code == xopChildSet {
			n.setChildCell(idx, childEntry{child, bytes})
		} else {
			n.insertChildCell(idx, childEntry{child, bytes})
		}
		return nil

	case xopBump:
		idx, rest, err := xTakeU16(b)
		if err != nil {
			return err
		}
		delta, _, err := xTakeU64(rest)
		if err != nil {
			return err
		}
		if idx >= n.ncells() {
			return errXReplay("bump at %d of %d on page %d", idx, n.ncells(), pageNo)
		}
		c := n.childCell(idx)
		c.bytes = uint64(int64(c.bytes) + int64(delta))
		n.setChildCell(idx, c)
		return nil

	case xopSplit:
		right, rest, err := xTakeU64(b)
		if err != nil {
			return err
		}
		at, _, err := xTakeU16(rest)
		if err != nil {
			return err
		}
		cnt := n.ncells()
		if at > cnt {
			return errXReplay("split at %d of %d on page %d", at, cnt, pageNo)
		}
		rdata, err := get(right)
		if err != nil {
			return err
		}
		rn := initNode(rdata, n.typ(), n.owner())
		copy(cellBytes(rn, 0, cnt-at), cellBytes(n, at, cnt))
		rn.setNCells(cnt - at)
		n.setNCells(at)
		if n.typ() == pageLeaf {
			rn.setNext(n.next())
			rn.setPrev(pageNo)
			n.setNext(right)
			// The old next leaf's prev pointer is fixed by its own range
			// record in the same operation.
		}
		return nil

	case xopAbsorb:
		right, _, err := xTakeU64(b)
		if err != nil {
			return err
		}
		rdata, err := get(right)
		if err != nil {
			return err
		}
		rn := nodeRef{rdata}
		if n.typ() != rn.typ() {
			return errXReplay("absorb of page %d into page %d of another type", right, pageNo)
		}
		base, rcnt := n.ncells(), rn.ncells()
		if hdrSize+(base+rcnt)*leafCellSize > len(data)-ownerLen {
			return errXReplay("absorb overflows page %d", pageNo)
		}
		copy(cellBytes(n, base, base+rcnt), cellBytes(rn, 0, rcnt))
		n.setNCells(base + rcnt)
		if n.typ() == pageLeaf {
			n.setNext(rn.next())
			// The next leaf's prev pointer rides its own range record.
		}
		return nil

	default:
		return errXReplay("unknown opcode %d", code)
	}
}
