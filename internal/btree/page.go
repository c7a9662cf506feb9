// Package btree implements a page-based B+tree over the pager, substituting
// for the Berkeley DB btrees the paper layers its OSD and index stores on.
//
// Features: variable-length keys and values, overflow chains for large
// values, ascending/descending cursors, range scans, and lazy (merge-only)
// rebalancing on delete. Each tree is rooted at a header page so trees can
// be persisted and reopened by page number alone.
//
// On-page layout (little-endian):
//
//	common header (24 bytes):
//	  [0]    type: 1=leaf, 2=internal, 3=overflow, 4=tree header
//	  [1]    flags (reserved)
//	  [2:4]  ncells
//	  [4:6]  cellStart — lowest byte offset used by cell content
//	  [6:8]  fragBytes — dead bytes recoverable by compaction
//	  [8:16] ptrA — leaf: next leaf; internal: rightmost child
//	  [16:24] ptrB — leaf: prev leaf
//	  [24:24+2n] slot array (cell content offsets, sorted by key)
//	cell content grows downward from the end of the page.
//
// Leaf cell:     klen uvarint | key | vtag(0=inline,1=overflow) |
//
//	inline: vlen uvarint, value
//	overflow: vlen uvarint (total), first overflow page uint64
//
// Internal cell: klen uvarint | key | child uint64
//
// Separator convention: an internal cell (k, c) means subtree c holds keys
// ≤ k; keys greater than the last cell key live under ptrA (rightmost
// child). Separators are upper bounds and need not be present in the
// subtree, which lets delete use merge-only rebalancing with no separator
// rewriting.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Page type bytes.
const (
	pageLeaf     = 1
	pageInternal = 2
	pageOverflow = 3
	pageHeader   = 4
)

// Header field offsets.
const (
	offType      = 0
	offFlags     = 1
	offNCells    = 2
	offCellStart = 4
	offFrag      = 6
	offPtrA      = 8
	offPtrB      = 16
	hdrSize      = 24
)

// Tree errors.
var (
	ErrNotFound  = errors.New("btree: key not found")
	ErrKeyTooBig = errors.New("btree: key too large")
	ErrCorrupt   = errors.New("btree: corrupt page")
)

type pageRef struct {
	data []byte
}

func (p pageRef) typ() byte          { return p.data[offType] }
func (p pageRef) setTyp(t byte)      { p.data[offType] = t }
func (p pageRef) ncells() int        { return int(binary.LittleEndian.Uint16(p.data[offNCells:])) }
func (p pageRef) setNCells(n int)    { binary.LittleEndian.PutUint16(p.data[offNCells:], uint16(n)) }
func (p pageRef) cellStart() int     { return int(binary.LittleEndian.Uint16(p.data[offCellStart:])) }
func (p pageRef) setCellStart(v int) { binary.LittleEndian.PutUint16(p.data[offCellStart:], uint16(v)) }
func (p pageRef) frag() int          { return int(binary.LittleEndian.Uint16(p.data[offFrag:])) }
func (p pageRef) setFrag(v int)      { binary.LittleEndian.PutUint16(p.data[offFrag:], uint16(v)) }
func (p pageRef) ptrA() uint64       { return binary.LittleEndian.Uint64(p.data[offPtrA:]) }
func (p pageRef) setPtrA(v uint64)   { binary.LittleEndian.PutUint64(p.data[offPtrA:], v) }
func (p pageRef) ptrB() uint64       { return binary.LittleEndian.Uint64(p.data[offPtrB:]) }
func (p pageRef) setPtrB(v uint64)   { binary.LittleEndian.PutUint64(p.data[offPtrB:], v) }

func (p pageRef) slot(i int) int {
	return int(binary.LittleEndian.Uint16(p.data[hdrSize+2*i:]))
}

func (p pageRef) setSlot(i, off int) {
	binary.LittleEndian.PutUint16(p.data[hdrSize+2*i:], uint16(off))
}

// initPage formats a page as an empty node of the given type.
func initPage(data []byte, typ byte) pageRef {
	for i := range data[:hdrSize] {
		data[i] = 0
	}
	p := pageRef{data}
	p.setTyp(typ)
	p.setCellStart(len(data))
	return p
}

// freeSpace returns the contiguous bytes available between the slot array
// and the cell content area.
func (p pageRef) freeSpace() int {
	return p.cellStart() - (hdrSize + 2*p.ncells())
}

// usedBytes returns bytes consumed by live cells plus slots.
func (p pageRef) usedBytes() int {
	return (len(p.data) - p.cellStart() - p.frag()) + 2*p.ncells()
}

// cell is the decoded form of a leaf or internal cell.
type cell struct {
	key []byte
	// Leaf fields.
	val      []byte // inline value (nil when overflowed)
	overflow uint64 // first overflow page (0 = inline)
	totalLen uint64 // total value length (inline or overflowed)
	// Internal field.
	child uint64
}

// decodeCell parses the cell at slot i.
func (p pageRef) decodeCell(i int) (cell, error) {
	off := p.slot(i)
	if off < hdrSize || off >= len(p.data) {
		return cell{}, fmt.Errorf("%w: slot %d offset %d", ErrCorrupt, i, off)
	}
	b := p.data[off:]
	klen, n := binary.Uvarint(b)
	if n <= 0 || int(klen) > len(b)-n {
		return cell{}, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	b = b[n:]
	key := b[:klen]
	b = b[klen:]
	var c cell
	c.key = key
	switch p.typ() {
	case pageLeaf:
		if len(b) < 1 {
			return cell{}, fmt.Errorf("%w: truncated leaf cell", ErrCorrupt)
		}
		vtag := b[0]
		b = b[1:]
		vlen, n := binary.Uvarint(b)
		if n <= 0 {
			return cell{}, fmt.Errorf("%w: bad value length", ErrCorrupt)
		}
		b = b[n:]
		c.totalLen = vlen
		if vtag == 0 {
			if int(vlen) > len(b) {
				return cell{}, fmt.Errorf("%w: inline value overruns page", ErrCorrupt)
			}
			c.val = b[:vlen]
		} else {
			if len(b) < 8 {
				return cell{}, fmt.Errorf("%w: truncated overflow pointer", ErrCorrupt)
			}
			c.overflow = binary.LittleEndian.Uint64(b)
		}
	case pageInternal:
		if len(b) < 8 {
			return cell{}, fmt.Errorf("%w: truncated child pointer", ErrCorrupt)
		}
		c.child = binary.LittleEndian.Uint64(b)
	default:
		return cell{}, fmt.Errorf("%w: decodeCell on page type %d", ErrCorrupt, p.typ())
	}
	return c, nil
}

// childAt returns the child an internal page routes index idx to: cell
// idx's child, or the rightmost pointer when idx is past the last cell.
func (p pageRef) childAt(idx int) (uint64, error) {
	if idx >= p.ncells() {
		return p.ptrA(), nil
	}
	c, err := p.decodeCell(idx)
	return c.child, err
}

// cellCopy is a leaf cell copied out of its pinned page: the key, and the
// value inline or as the overflow chain that holds it.
type cellCopy struct {
	key, val   []byte
	ovf, total uint64
}

// copyOut copies the cell's key and inline value out of the page.
func (c cell) copyOut() cellCopy {
	cc := cellCopy{key: append([]byte(nil), c.key...), ovf: c.overflow, total: c.totalLen}
	if c.overflow == 0 {
		cc.val = append([]byte(nil), c.val...)
	}
	return cc
}

// encodedLeafCellSize returns the on-page size of a leaf cell for a key and
// either an inline value of vlen bytes or an overflow pointer.
func encodedLeafCellSize(klen, vlen int, inline bool) int {
	sz := uvarintLen(uint64(klen)) + klen + 1
	if inline {
		sz += uvarintLen(uint64(vlen)) + vlen
	} else {
		sz += uvarintLen(uint64(vlen)) + 8
	}
	return sz
}

func encodedInternalCellSize(klen int) int {
	return uvarintLen(uint64(klen)) + klen + 8
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// encodeLeafCell appends the encoded cell to dst.
func encodeLeafCell(dst []byte, key, val []byte, totalLen uint64, overflow uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	dst = append(dst, tmp[:n]...)
	dst = append(dst, key...)
	if overflow == 0 {
		dst = append(dst, 0)
		n = binary.PutUvarint(tmp[:], uint64(len(val)))
		dst = append(dst, tmp[:n]...)
		dst = append(dst, val...)
	} else {
		dst = append(dst, 1)
		n = binary.PutUvarint(tmp[:], totalLen)
		dst = append(dst, tmp[:n]...)
		var pb [8]byte
		binary.LittleEndian.PutUint64(pb[:], overflow)
		dst = append(dst, pb[:]...)
	}
	return dst
}

func encodeInternalCell(dst []byte, key []byte, child uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	dst = append(dst, tmp[:n]...)
	dst = append(dst, key...)
	var pb [8]byte
	binary.LittleEndian.PutUint64(pb[:], child)
	dst = append(dst, pb[:]...)
	return dst
}

// insertRaw places an encoded cell at slot index i, compacting first if the
// contiguous free space is insufficient but fragmentation would cover it.
// Returns false if the cell cannot fit even after compaction.
func (p pageRef) insertRaw(i int, enc []byte) bool {
	need := len(enc) + 2
	if p.freeSpace() < need {
		if p.freeSpace()+p.frag() < need {
			return false
		}
		p.compact()
		if p.freeSpace() < need {
			return false
		}
	}
	off := p.cellStart() - len(enc)
	copy(p.data[off:], enc)
	p.setCellStart(off)
	n := p.ncells()
	// Shift slots [i, n) right by one.
	copy(p.data[hdrSize+2*(i+1):hdrSize+2*(n+1)], p.data[hdrSize+2*i:hdrSize+2*n])
	p.setSlot(i, off)
	p.setNCells(n + 1)
	return true
}

// removeCell deletes slot i, accounting its bytes as fragmentation.
func (p pageRef) removeCell(i int) {
	off := p.slot(i)
	size := p.cellLenAt(off)
	n := p.ncells()
	copy(p.data[hdrSize+2*i:hdrSize+2*(n-1)], p.data[hdrSize+2*(i+1):hdrSize+2*n])
	p.setNCells(n - 1)
	if off == p.cellStart() {
		p.setCellStart(off + size)
	} else {
		p.setFrag(p.frag() + size)
	}
}

// cellLenAt computes the encoded length of the cell starting at off.
func (p pageRef) cellLenAt(off int) int {
	b := p.data[off:]
	klen, n := binary.Uvarint(b)
	sz := n + int(klen)
	b = b[sz:]
	switch p.typ() {
	case pageLeaf:
		vtag := b[0]
		b = b[1:]
		sz++
		vlen, n := binary.Uvarint(b)
		sz += n
		if vtag == 0 {
			sz += int(vlen)
		} else {
			sz += 8
		}
	case pageInternal:
		sz += 8
	}
	return sz
}

// compact rewrites all cells densely, zeroing fragmentation.
func (p pageRef) compact() {
	n := p.ncells()
	type ent struct {
		slot int
		raw  []byte
	}
	ents := make([]ent, n)
	for i := 0; i < n; i++ {
		off := p.slot(i)
		sz := p.cellLenAt(off)
		raw := make([]byte, sz)
		copy(raw, p.data[off:off+sz])
		ents[i] = ent{i, raw}
	}
	pos := len(p.data)
	for i := 0; i < n; i++ {
		pos -= len(ents[i].raw)
		copy(p.data[pos:], ents[i].raw)
		p.setSlot(i, pos)
	}
	p.setCellStart(pos)
	p.setFrag(0)
}

// search returns the index of the first cell with key >= target, and
// whether an exact match was found at that index.
func (p pageRef) search(target []byte) (int, bool, error) {
	lo, hi := 0, p.ncells()
	for lo < hi {
		mid := (lo + hi) / 2
		c, err := p.decodeCell(mid)
		if err != nil {
			return 0, false, err
		}
		switch cmp := compareKeys(c.key, target); {
		case cmp < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	if lo < p.ncells() {
		c, err := p.decodeCell(lo)
		if err != nil {
			return 0, false, err
		}
		return lo, compareKeys(c.key, target) == 0, nil
	}
	return lo, false, nil
}

// compareKeys is bytes.Compare, isolated so key ordering is explicit.
func compareKeys(a, b []byte) int {
	switch {
	case string(a) < string(b):
		return -1
	case string(a) > string(b):
		return 1
	default:
		return 0
	}
}
