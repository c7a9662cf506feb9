// Physiological redo for extent-tree pages: typed per-page operations
// that recovery re-executes instead of replaying whole page images.
//
// Extent trees are object-private (one mutator lock serializes every
// writer of a tree), so unlike btree pages they are never interleaved by
// concurrent transactions — but they were still image-logged per
// operation, which made a 30-byte append pay a 4 KiB record per touched
// tree level. The records here log the logical mutation instead:
//
//   - Per-operation records (staged into the operation's redo capture,
//     replayed only if its transaction committed): leaf-cell inserts,
//     removes and rewrites addressed by cell index, and subtree
//     byte-count deltas on internal nodes. The object's size is the
//     root's sum.
//   - System-transaction records (auto-committed via wal.AppendSystem
//     the moment they happen): node splits, merges, and the root's
//     push-down and pull-up, each one record on the root page that names
//     the child. Splits are restructured to be *sum-preserving* —
//     the tree splits a full node around its own midpoint first, then
//     the enclosing operation re-descends and inserts its cell as an
//     ordinary per-op record — so an always-redone split never carries
//     the (possibly uncommitted) triggering cell and never changes any
//     byte count above it. Its records carry no sums either: replay
//     derives each parent entry from the child it has rebuilt, so a split
//     redone without the cells of an operation that never committed sums
//     only what the log kept. Merges run post-commit (pager.Op.Defer),
//     mirroring btree's deferred rebalance, so replay can never pack an
//     undeleted cell plus a whole sibling into one page.
//
// Replay applies records in global LSN order onto pages materialized
// from their first-touch base images (or zeroes, for fresh pages a
// split/init record rebuilds from scratch), so each record re-executes
// against exactly the state the preceding records built.
//
// Op payloads (first byte is the opcode; all integers little-endian):
//
//	xopInit     typ u8 | owner u64            (a fresh root)
//	xopLeafIns  idx u16 | cell 16B            (shift right, store)
//	xopLeafSet  idx u16 | cell 16B            (overwrite in place)
//	xopLeafDel  idx u16                       (shift left)
//	xopChildIns idx u16 | child u64           (entry's bytes: the child's sum)
//	xopChildSet idx u16 | child u64           (likewise)
//	xopBump     idx u16 | delta u64           (two's complement add to bytes)
//	xopSplit    right u64 | at u16            (cells [at,n) move to right;
//	                                           leaf pages also stitch the chain)
//	xopMerge    li u16                        (page = parent: children at
//	                                           li, li+1 merge into li's child)
//	xopWrote    block u64 | sum u32...        (page = root, unchanged: the
//	                                           data blocks from block on that
//	                                           the operation wrote, one sum each)
//	xopPushDown child u64                     (page = root: its content moves
//	                                           to the fresh child, its one entry)
//	xopPullUp   child u64                     (page = root: its one child's
//	                                           content moves up)
//
// Opcode 9 is retired: it grew a new root above the old one, in an older
// format whose tree was named by a header page.
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
	xopMerge    = 10
	xopWrote    = 11
	xopPushDown = 12
	xopPullUp   = 13
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

// moveDown moves root's content into the fresh page c, numbered child,
// and leaves root an internal node whose one entry is c. The runtime
// push-down and its replay share it, so both build the same bytes.
func moveDown(root nodeRef, c []byte, child uint64) {
	cn := initNode(c, root.typ(), root.owner())
	cnt := root.ncells()
	copy(cn.data[offPtrA:hdrSize], root.data[offPtrA:hdrSize])
	copy(cellBytes(cn, 0, cnt), cellBytes(root, 0, cnt))
	cn.setNCells(cnt)
	root.data[offType] = pageInternal
	root.setNext(0)
	root.setPrev(0)
	root.setChildCell(0, childEntry{child, cn.sum()})
	root.setNCells(1)
}

// moveUp moves the content of c, the root's only child, into the root:
// moveDown's inverse, shared by the runtime pull-up and its replay. The
// root keeps its owner.
func moveUp(root, c nodeRef) {
	cnt := c.ncells()
	root.data[offType] = c.typ()
	copy(root.data[offPtrA:hdrSize], c.data[offPtrA:hdrSize])
	copy(cellBytes(root, 0, cnt), cellBytes(c, 0, cnt))
	root.setNCells(cnt)
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
		if len(b) != 9 {
			return errXReplay("xopInit payload of %d bytes", len(b))
		}
		initNode(data, b[0], binary.LittleEndian.Uint64(b[1:]))
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
			// A leaf split's index was computed over the splitting
			// operation's own (then-uncommitted) cells; if that
			// operation's records were dropped, the committed leaf can
			// hold fewer. Clamp: committed cells all stay left, the
			// right sibling comes up empty, and chain order — hence
			// content — is preserved. The parent's entries that follow
			// sum the halves as replay built them, so they hold what the
			// log kept. (Internal-node indexes never need this: internal
			// cell counts change only through system transactions, which
			// replay unconditionally.)
			at = cnt
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
			// record in the same system transaction.
		}
		return nil

	case xopMerge:
		li, _, err := xTakeU16(b)
		if err != nil {
			return err
		}
		if li+1 >= n.ncells() {
			return errXReplay("merge at %d of %d on page %d", li, n.ncells(), pageNo)
		}
		lc, rc := n.childCell(li), n.childCell(li+1)
		ldata, err := get(lc.child)
		if err != nil {
			return err
		}
		rdata, err := get(rc.child)
		if err != nil {
			return err
		}
		ln, rn := nodeRef{ldata}, nodeRef{rdata}
		if ln.typ() != rn.typ() {
			return errXReplay("merge type mismatch under page %d", pageNo)
		}
		base, rcnt := ln.ncells(), rn.ncells()
		if hdrSize+(base+rcnt)*leafCellSize > len(ldata)-ownerLen {
			return errXReplay("merge overflow under page %d", pageNo)
		}
		copy(cellBytes(ln, base, base+rcnt), cellBytes(rn, 0, rcnt))
		ln.setNCells(base + rcnt)
		if ln.typ() == pageLeaf {
			ln.setNext(rn.next())
			// The next leaf's prev pointer rides its own range record.
		}
		n.setChildCell(li, childEntry{lc.child, lc.bytes + rc.bytes})
		n.removeChildCell(li + 1)
		return nil

	case xopWrote:
		// Changes no page: the record only names data blocks (DataSums).
		if len(b) < 12 || (len(b)-8)%4 != 0 {
			return errXReplay("xopWrote payload of %d bytes", len(b))
		}
		return nil

	case xopPushDown:
		child, _, err := xTakeU64(b)
		if err != nil {
			return err
		}
		cdata, err := get(child)
		if err != nil {
			return err
		}
		moveDown(n, cdata, child)
		return nil

	case xopPullUp:
		child, _, err := xTakeU64(b)
		if err != nil {
			return err
		}
		if n.typ() != pageInternal || n.ncells() != 1 || n.childCell(0).child != child {
			return errXReplay("pull-up of %d into page %d, which does not hold it alone", child, pageNo)
		}
		cdata, err := get(child)
		if err != nil {
			return err
		}
		moveUp(n, nodeRef{cdata})
		return nil

	default:
		return errXReplay("unknown opcode %d", code)
	}
}

// DataSums calls fn with each data block a record says its operation
// wrote straight to the device, outside the log, and the sum of what the
// block then held. Recovery holds those blocks to these sums in place of
// the checkpoint's, so a write the device lost or misdirected reads back
// as corrupt.
func DataSums(payload []byte, fn func(block uint64, sum uint32)) {
	if len(payload) < 13 || payload[0] != xopWrote || (len(payload)-9)%4 != 0 {
		return
	}
	block := binary.LittleEndian.Uint64(payload[1:])
	for b := payload[9:]; len(b) > 0; b = b[4:] {
		fn(block, binary.LittleEndian.Uint32(b))
		block++
	}
}
