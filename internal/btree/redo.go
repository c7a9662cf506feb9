// Physiological redo for btree pages: typed per-page operations that
// recovery re-executes instead of replaying whole page images.
//
// Why typed ops instead of byte ranges: btree pages are shared between
// concurrent transactions (the object table, the index trees, the reverse
// index), and an insert physically shifts the slot array and header
// fields, so any byte range wide enough to cover one writer's edit also
// covers bytes a neighbour wrote. Re-executing "put this cell" against
// whatever committed cells the page holds at replay time is position-
// independent — a committed record can never smuggle in, or depend on,
// a neighbour's uncommitted bytes.
//
// Structure modifications (splits, merges, root changes) are emitted as
// *system transactions*: auto-committed the moment they happen,
// regardless of the enclosing operation's fate. A committed neighbour's
// records may target pages a split created, so the split must be redone
// even when the splitting operation's own transaction never committed.
// System-transaction records are equally typed: replaying a split
// re-partitions whatever committed cells the page holds around the
// recorded separator, so an always-redone split still carries nobody's
// cell bytes.
//
// Op payloads (first byte is the opcode):
//
//	opPut           cell-encoding (leaf or internal; replace semantics)
//	opDel           key
//	opRedirect      klen uvarint | key | newChild u64   (internal cell)
//	opSplitLeaf     right u64 | klen uvarint | sep      (cells > sep move)
//	opSplitInternal right u64 | newChild u64 | klen uvarint | newKey
//	opNewRoot       left u64 | right u64 | klen uvarint | sep
//	opMerge         left u64 | right u64                (page = parent)
//
// Each opcode's replay is its entry in replayOps. Opcode 1 is retired:
// it formatted the root leaf of a tree an operation created. Such a tree
// is built whole now (Build), and no record carries its pages; the volume
// format that retired it refuses older logs.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/redo"
)

// Btree redo opcodes (payload byte 0 of a redo.KindBtreeOp record), in
// one block that ends in opCount; a retired value holds a blank, so no
// wire value moves.
const (
	_               = iota // 0: never written
	_                      // 1: retired (formatted a created tree's root leaf)
	opPut                  // 2
	opDel                  // 3
	opRedirect             // 4
	opSplitLeaf            // 5
	opSplitInternal        // 6
	opNewRoot              // 7
	opMerge                // 8
	opCount
)

// opReplay is one op being re-executed: the page it names, the accessor
// for the other pages it spans, and a reader over its fields.
type opReplay struct {
	get func(pno uint64) ([]byte, error)
	pno uint64
	p   pageRef
	r   redo.Reader
}

// replayOps is the btree redo vocabulary, indexed by opcode: the one
// place an opcode's replay is defined. A retired opcode has no entry.
var replayOps = [opCount]func(x opReplay) error{
	opPut:           replayPut,
	opDel:           replayDel,
	opRedirect:      replayRedirect,
	opSplitLeaf:     replaySplitLeaf,
	opSplitInternal: replaySplitInternal,
	opNewRoot:       replayNewRoot,
	opMerge:         replayMerge,
}

// errReplay wraps replay decoding/execution failures.
func errReplay(format string, args ...any) error {
	return fmt.Errorf("%w: replay: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// ReplayOp re-executes one btree redo op against raw page bytes obtained
// through get (which materializes pages from their home locations and
// earlier replayed records). pageNo is the record's page; ops that span
// pages (splits, merges) fetch the others from get.
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
	err = replayOps[code](opReplay{get: get, pno: pageNo, p: pageRef{data}, r: redo.NewReader(payload[1:])})
	if errors.Is(err, redo.ErrShort) {
		return errReplay("opcode %d: %v", code, err)
	}
	return err
}

// replayPut re-executes a cell put (replace semantics) on a leaf or
// internal page. The payload is the cell, read whole to prove it is one.
func replayPut(x opReplay) error {
	enc := x.r.Rest()
	c := redo.NewReader(enc)
	key := c.Key()
	if x.p.typ() == pageLeaf {
		if inline := c.U8() == 0; inline {
			c.Bytes(c.Uvarint())
		} else {
			c.Uvarint()
			c.U64()
		}
	} else {
		c.U64()
	}
	if c.Err() != nil || c.Len() != 0 {
		return errReplay("put of a malformed %d-byte cell on page %d", len(enc), x.pno)
	}
	idx, found, err := x.p.search(key)
	if err != nil {
		return err
	}
	if found {
		x.p.removeCell(idx)
	}
	if !x.p.insertRaw(idx, enc) {
		// The committed cell set can exceed the runtime page only when an
		// uncommitted delete freed the space the runtime insert used — a
		// crash window the deferred-merge policy narrows but replay must
		// still surface rather than corrupt.
		return errReplay("cell does not fit during put replay")
	}
	return nil
}

// replayDel removes a key, if the page holds it.
func replayDel(x opReplay) error {
	idx, found, err := x.p.search(x.r.Rest())
	if err != nil {
		return err
	}
	if found {
		x.p.removeCell(idx)
	}
	return nil
}

// replayRedirect points an internal cell's key at a new child.
func replayRedirect(x opReplay) error {
	key, child := x.r.Key(), x.r.U64()
	if err := x.r.Err(); err != nil {
		return err
	}
	idx, found, err := x.p.search(key)
	if err != nil {
		return err
	}
	if !found {
		return errReplay("redirect target key missing on page %d", x.pno)
	}
	x.p.removeCell(idx)
	if !x.p.insertRaw(idx, encodeInternalCell(nil, key, child)) {
		return errReplay("redirect reinsert failed on page %d", x.pno)
	}
	return nil
}

// replaySplitLeaf re-partitions the committed cells of the left leaf
// around sep: cells with key > sep move to the (rebuilt) right page.
// Mirrors the runtime split, which chose sep as the largest left-hand
// key; sep itself may name a cell replay has never seen — separators
// need not exist in the tree.
func replaySplitLeaf(x opReplay) error {
	rightPno, sep := x.r.U64(), x.r.Key()
	if err := x.r.Err(); err != nil {
		return err
	}
	rdata, err := x.get(rightPno)
	if err != nil {
		return err
	}
	// The left leaf is rebuilt in place, so its cells are read from one
	// copy of it; each lands, in slot order, on the side sep gives it.
	src := pageRef{bytes.Clone(x.p.data)}
	oldNext := src.ptrA()
	oldPrev := src.ptrB()
	lp := initPage(x.p.data, pageLeaf)
	rp := initPage(rdata, pageLeaf)
	for i := 0; i < src.ncells(); i++ {
		off := src.slot(i)
		raw := src.data[off : off+src.cellLenAt(off)]
		if bytes.Compare(decodeKeyFromRaw(raw), sep) <= 0 {
			if !lp.insertRaw(lp.ncells(), raw) {
				return errReplay("split-leaf left overflow")
			}
		} else if !rp.insertRaw(rp.ncells(), raw) {
			return errReplay("split-leaf right overflow")
		}
	}
	rp.setPtrA(oldNext)
	rp.setPtrB(x.pno)
	lp.setPtrA(rightPno)
	lp.setPtrB(oldPrev)
	return nil
}

// replaySplitInternal re-executes an internal split with the new
// separator cell included — internal pages are written only by system
// transactions, so their replay state matches the runtime state and the
// runtime's middle-cell choice is reproduced exactly.
func replaySplitInternal(x opReplay) error {
	right, newChild, newKey := x.r.U64(), x.r.U64(), x.r.Key()
	if err := x.r.Err(); err != nil {
		return err
	}
	rdata, err := x.get(right)
	if err != nil {
		return err
	}
	p := x.p
	type icell struct {
		key   []byte
		child uint64
	}
	n := p.ncells()
	cells := make([]icell, 0, n+1)
	for i := 0; i < n; i++ {
		c, err := p.decodeCell(i)
		if err != nil {
			return err
		}
		k := make([]byte, len(c.key))
		copy(k, c.key)
		cells = append(cells, icell{k, c.child})
	}
	idx, found, err := p.search(newKey)
	if err != nil {
		return err
	}
	if found {
		return errReplay("split-internal separator already present")
	}
	cells = append(cells[:idx], append([]icell{{newKey, newChild}}, cells[idx:]...)...)
	rightMost := p.ptrA()
	m := len(cells) / 2
	promoted := cells[m]

	rp := initPage(rdata, pageInternal)
	for i := m + 1; i < len(cells); i++ {
		if !rp.insertRaw(i-m-1, encodeInternalCell(nil, cells[i].key, cells[i].child)) {
			return errReplay("split-internal right overflow")
		}
	}
	rp.setPtrA(rightMost)

	lp := initPage(p.data, pageInternal)
	for i := 0; i < m; i++ {
		if !lp.insertRaw(i, encodeInternalCell(nil, cells[i].key, cells[i].child)) {
			return errReplay("split-internal left overflow")
		}
	}
	lp.setPtrA(promoted.child)
	return nil
}

// replayNewRoot formats the record's page as a new internal root over
// two children.
func replayNewRoot(x opReplay) error {
	left, right, sep := x.r.U64(), x.r.U64(), x.r.Key()
	if err := x.r.Err(); err != nil {
		return err
	}
	np := initPage(x.p.data, pageInternal)
	if !np.insertRaw(0, encodeInternalCell(nil, sep, left)) {
		return errReplay("new-root separator does not fit")
	}
	np.setPtrA(right)
	return nil
}

// replayMerge re-executes a sibling merge plus its parent fixup; the
// record's page is the parent.
func replayMerge(x opReplay) error {
	leftPno, right := x.r.U64(), x.r.U64()
	if err := x.r.Err(); err != nil {
		return err
	}
	ldata, err := x.get(leftPno)
	if err != nil {
		return err
	}
	rdata, err := x.get(right)
	if err != nil {
		return err
	}
	pp, lp, rp := x.p, pageRef{ldata}, pageRef{rdata}
	// Locate the parent cell referring to left.
	li := -1
	for i := 0; i < pp.ncells(); i++ {
		c, err := pp.decodeCell(i)
		if err != nil {
			return err
		}
		if c.child == leftPno {
			li = i
			break
		}
	}
	if li < 0 {
		return errReplay("merge: parent cell for left child missing")
	}
	if lp.typ() != rp.typ() {
		return errReplay("merge: sibling type mismatch")
	}
	if lp.typ() == pageInternal {
		c, err := pp.decodeCell(li)
		if err != nil {
			return err
		}
		sepKey := append([]byte(nil), c.key...)
		if !lp.insertRaw(lp.ncells(), encodeInternalCell(nil, sepKey, lp.ptrA())) {
			return errReplay("merge: separator absorb overflow")
		}
		for i := 0; i < rp.ncells(); i++ {
			off := rp.slot(i)
			sz := rp.cellLenAt(off)
			raw := make([]byte, sz)
			copy(raw, rp.data[off:off+sz])
			if !lp.insertRaw(lp.ncells(), raw) {
				return errReplay("merge: internal absorb overflow")
			}
		}
		lp.setPtrA(rp.ptrA())
	} else {
		for i := 0; i < rp.ncells(); i++ {
			off := rp.slot(i)
			sz := rp.cellLenAt(off)
			raw := make([]byte, sz)
			copy(raw, rp.data[off:off+sz])
			if !lp.insertRaw(lp.ncells(), raw) {
				return errReplay("merge: leaf absorb overflow")
			}
		}
		lp.setPtrA(rp.ptrA())
		// The next leaf's back pointer is fixed by its own range record.
	}
	// Parent: redirect right's reference to left, drop left's cell.
	ri := li + 1
	if ri < pp.ncells() {
		c, err := pp.decodeCell(ri)
		if err != nil {
			return err
		}
		k := append([]byte(nil), c.key...)
		pp.removeCell(ri)
		if !pp.insertRaw(ri, encodeInternalCell(nil, k, leftPno)) {
			return errReplay("merge: parent redirect failed")
		}
	} else {
		pp.setPtrA(leftPno)
	}
	pp.removeCell(li)
	return nil
}

// encodeHeader renders the tree-header fields (type, magic, root, height)
// for a header range record.
func encodeHeader(root uint64, height int) []byte {
	b := make([]byte, 24)
	b[offType] = pageHeader
	binary.LittleEndian.PutUint32(b[hOffMagic:], treeMagic)
	binary.LittleEndian.PutUint64(b[hOffRoot:], root)
	binary.LittleEndian.PutUint64(b[hOffHeight:], uint64(height))
	return b
}
