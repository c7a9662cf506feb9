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
// Each opcode's replay is its entry in replayOps. Opcodes 9, 10, 12 and
// 13 are retired: they grew a root above the old one, merged two
// children through their parent, and pushed a root page down and pulled
// it up, in older formats whose roots had pages. So is opcode 11, which
// named the data blocks an operation wrote: that is a redo.KindWrote
// record now, which built btree pages share; the volume format that
// retired it refuses older logs.
package extent

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/redo"
)

// Extent redo opcodes (payload byte 0 of a redo.KindExtentOp record), in
// one block that ends in xopCount; a retired value holds a blank, so no
// wire value moves.
const (
	_           = iota // 0: never written
	xopInit            // 1
	xopLeafIns         // 2
	xopLeafSet         // 3
	xopLeafDel         // 4
	xopChildIns        // 5
	xopChildSet        // 6
	xopBump            // 7
	xopSplit           // 8
	_                  // 9: retired (grew a root above the old one)
	_                  // 10: retired (merged two children through their parent)
	_                  // 11: retired (named written data blocks; now redo.KindWrote)
	_                  // 12: retired (pushed a root page down)
	_                  // 13: retired (pulled a root page up)
	xopAbsorb          // 14
	xopChildDel        // 15
	xopCount
)

func encCell(e Extent) []byte {
	var b [leafCellSize]byte
	binary.LittleEndian.PutUint64(b[:], e.Alloc)
	binary.LittleEndian.PutUint32(b[8:], e.AllocBlocks)
	binary.LittleEndian.PutUint32(b[12:], e.Len)
	return b[:]
}

// takeCell reads one leaf cell.
func takeCell(r *redo.Reader) Extent {
	return Extent{Alloc: r.U64(), AllocBlocks: r.U32(), Len: r.U32()}
}

// xopReplay is one op being re-executed: the node it names, the accessor
// for the other pages it spans, and a reader over its fields.
type xopReplay struct {
	get func(pno uint64) ([]byte, error)
	pno uint64
	n   nodeRef
	r   redo.Reader
}

// replayOps is the extent redo vocabulary, indexed by opcode: the one
// place an opcode's replay is defined. A retired opcode has no entry.
var replayOps = [xopCount]func(x xopReplay) error{
	xopInit:     replayInit,
	xopLeafIns:  replayLeafIns,
	xopLeafSet:  replayLeafSet,
	xopLeafDel:  replayLeafDel,
	xopChildIns: replayChildIns,
	xopChildSet: replayChildSet,
	xopBump:     replayBump,
	xopSplit:    replaySplit,
	xopAbsorb:   replayAbsorb,
	xopChildDel: replayChildDel,
}

// errReplay wraps replay decoding/execution failures.
func errReplay(format string, args ...any) error {
	return fmt.Errorf("%w: replay: %s", ErrCorrupt, fmt.Sprintf(format, args...))
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
		return 0, errReplay("split child %d is page type %d", pno, t)
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
		return errReplay("empty op payload")
	}
	code := payload[0]
	if int(code) >= len(replayOps) || replayOps[code] == nil {
		return errReplay("unknown opcode %d", code)
	}
	data, err := get(pageNo)
	if err != nil {
		return err
	}
	// An entry reads all its fields, then checks the reader's error
	// before it touches a page: a payload cut short is corrupt.
	err = replayOps[code](xopReplay{get: get, pno: pageNo, n: nodeRef{data}, r: redo.NewReader(payload[1:])})
	if errors.Is(err, redo.ErrShort) {
		return errReplay("opcode %d: %v", code, err)
	}
	return err
}

// index checks the fields read so far, and the cell index read with
// them: it names a cell of the node, or, for an insert into a node with
// room for one more cell, the slot past the last.
func (x *xopReplay) index(idx int, insert bool, what string) error {
	if err := x.r.Err(); err != nil {
		return err
	}
	cnt := x.n.ncells()
	if idx > cnt || idx == cnt && !insert || insert && hdrSize+(cnt+1)*leafCellSize > len(x.n.data)-ownerLen {
		return errReplay("%s at %d of %d on page %d", what, idx, cnt, x.pno)
	}
	return nil
}

func replayInit(x xopReplay) error {
	typ, owner, cells := x.r.U8(), x.r.U64(), x.r.Rest()
	if err := x.r.Err(); err != nil {
		return err
	}
	if len(cells)%leafCellSize != 0 || hdrSize+len(cells) > len(x.n.data)-ownerLen {
		return errReplay("xopInit with %d bytes of cells", len(cells))
	}
	n := initNode(x.n.data, typ, owner)
	cnt := len(cells) / leafCellSize
	copy(cellBytes(n, 0, cnt), cells)
	n.setNCells(cnt)
	return nil
}

func replayLeafIns(x xopReplay) error {
	idx, e := x.r.U16(), takeCell(&x.r)
	if err := x.index(idx, true, "leaf insert"); err != nil {
		return err
	}
	x.n.insertLeafCell(idx, e)
	return nil
}

func replayLeafSet(x xopReplay) error {
	idx, e := x.r.U16(), takeCell(&x.r)
	if err := x.index(idx, false, "leaf set"); err != nil {
		return err
	}
	x.n.setLeafCell(idx, e)
	return nil
}

func replayLeafDel(x xopReplay) error {
	idx := x.r.U16()
	if err := x.index(idx, false, "leaf delete"); err != nil {
		return err
	}
	x.n.removeLeafCell(idx)
	return nil
}

func replayChildDel(x xopReplay) error {
	idx := x.r.U16()
	if err := x.index(idx, false, "child delete"); err != nil {
		return err
	}
	x.n.removeChildCell(idx)
	return nil
}

// child reads an entry's index and child page, and sums the child as
// replay has built it.
func (x *xopReplay) child(insert bool, what string) (int, childEntry, error) {
	idx, child := x.r.U16(), x.r.U64()
	if err := x.index(idx, insert, what); err != nil {
		return 0, childEntry{}, err
	}
	bytes, err := subtreeBytes(x.get, child)
	return idx, childEntry{child, bytes}, err
}

func replayChildIns(x xopReplay) error {
	idx, c, err := x.child(true, "child insert")
	if err != nil {
		return err
	}
	x.n.insertChildCell(idx, c)
	return nil
}

func replayChildSet(x xopReplay) error {
	idx, c, err := x.child(false, "child set")
	if err != nil {
		return err
	}
	x.n.setChildCell(idx, c)
	return nil
}

func replayBump(x xopReplay) error {
	idx, delta := x.r.U16(), x.r.U64()
	if err := x.index(idx, false, "bump"); err != nil {
		return err
	}
	c := x.n.childCell(idx)
	c.bytes = uint64(int64(c.bytes) + int64(delta))
	x.n.setChildCell(idx, c)
	return nil
}

func replaySplit(x xopReplay) error {
	right, at := x.r.U64(), x.r.U16()
	if err := x.r.Err(); err != nil {
		return err
	}
	n, cnt := x.n, x.n.ncells()
	if at > cnt {
		return errReplay("split at %d of %d on page %d", at, cnt, x.pno)
	}
	rdata, err := x.get(right)
	if err != nil {
		return err
	}
	rn := initNode(rdata, n.typ(), n.owner())
	copy(cellBytes(rn, 0, cnt-at), cellBytes(n, at, cnt))
	rn.setNCells(cnt - at)
	n.setNCells(at)
	if n.typ() == pageLeaf {
		rn.setNext(n.next())
		rn.setPrev(x.pno)
		n.setNext(right)
		// The old next leaf's prev pointer is fixed by its own range
		// record in the same operation.
	}
	return nil
}

func replayAbsorb(x xopReplay) error {
	right := x.r.U64()
	if err := x.r.Err(); err != nil {
		return err
	}
	rdata, err := x.get(right)
	if err != nil {
		return err
	}
	n, rn := x.n, nodeRef{rdata}
	if n.typ() != rn.typ() {
		return errReplay("absorb of page %d into page %d of another type", right, x.pno)
	}
	base, rcnt := n.ncells(), rn.ncells()
	if hdrSize+(base+rcnt)*leafCellSize > len(n.data)-ownerLen {
		return errReplay("absorb overflows page %d", x.pno)
	}
	copy(cellBytes(n, base, base+rcnt), cellBytes(rn, 0, rcnt))
	n.setNCells(base + rcnt)
	if n.typ() == pageLeaf {
		n.setNext(rn.next())
		// The next leaf's prev pointer rides its own range record.
	}
	return nil
}
