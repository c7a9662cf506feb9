package btree

import (
	"bytes"
	"fmt"

	"repro/internal/pager"
	"repro/internal/undo"
)

// Build creates a tree holding the pairs next yields, for op, and returns
// it. next must yield keys in strictly ascending order; it reports ok =
// false once it has no more.
//
// The tree is built bottom-up, as an SSTable is: leaves are packed full
// in key order, and each level keeps one open page, whose finished
// predecessors have gone to the device. The pages have the format a tree
// grown by puts has — leaf chain, internal cells, overflow chains, header
// page — so every reader works on it unchanged. A built tree is
// read-only: nothing puts into it or deletes from it, so packing its
// pages full costs no split later, and a value stays in its leaf cell
// whenever that cell fits an empty leaf (fitsEmptyLeaf). Only a larger
// value gets an overflow chain, where a put chains any value over
// maxInlineValue.
//
// Each page is written once, as it is finished, through
// pager.WriteFresh: home at once and clean in the cache, with no record
// of its bytes in the log. Build logs only its page allocations, the
// pages' sums, and, once the tree stands, the inverse of its creation,
// which drops the tree whole; the header goes last. All of it is one
// atomic section, so the allocations reach the log with their inverse or
// not at all. A build that fails frees every page it took.
func Build(pg *pager.Pager, alloc PageAllocator, op *pager.Op, next func() (key, val []byte, ok bool, err error)) (*Tree, error) {
	op.BeginAtomic()
	defer op.EndAtomic()
	t := &Tree{pg: pg, space: pager.NewSpace(pg, pageRuns{alloc})}
	b := &builder{t: t, pg: pg, op: op}
	if err := b.build(next); err != nil {
		for _, pno := range b.pages {
			_ = pg.Invalidate(pno)
			_ = t.space.Free(op, pno, 1)
		}
		return nil, err
	}
	op.StageUndo(undo.BtreeDrop(t.hdrPno))
	return t, nil
}

// fitsEmptyLeaf reports whether a leaf cell holding a klen-byte key and
// a vlen-byte value inline fits, with its slot, an empty leaf of a
// blockSize-byte page: the rule by which Build keeps a value in its leaf.
func fitsEmptyLeaf(blockSize, klen, vlen int) bool {
	return encodedLeafCellSize(klen, vlen, true)+2 <= blockSize-hdrSize
}

// builder is one Build in progress: t, once its header is written.
type builder struct {
	t  *Tree
	pg *pager.Pager
	op *pager.Op
	// pages lists every page allocated so far, for a failed build to free.
	pages []uint64
	// levels holds the open page of each level, leaves first.
	levels []*openPage
	// last is the last key added, once n > 0.
	last []byte
	n    int
	// ovf is the scratch page overflow chains are written from.
	ovf []byte
}

// openPage is the page a level is filling. A leaf has its page number
// from the start (its left neighbour's next pointer names it); an
// internal page gets one when it is finished. An internal level holds
// back its newest child: it becomes a cell when a later child follows,
// or the page's rightmost pointer when the page is finished.
type openPage struct {
	p         pageRef
	pno       uint64
	pendKey   []byte
	pendChild uint64
	pending   bool
}

// newPage formats l's page buffer, which its finished page has left, as
// an empty page of typ: the device gets zeros past the cells.
func (l *openPage) newPage(typ byte) {
	clear(l.p.data)
	initPage(l.p.data, typ)
}

func (b *builder) openLevel(typ byte) *openPage {
	l := &openPage{p: pageRef{make([]byte, b.pg.BlockSize())}}
	l.newPage(typ)
	b.levels = append(b.levels, l)
	return l
}

func (b *builder) alloc() (uint64, error) {
	pno, err := b.t.space.Alloc(b.op, 1)
	if err == nil {
		b.pages = append(b.pages, pno)
	}
	return pno, err
}

// build allocates the header page first, as a put-grown tree's
// constructor does (a caller may reopen a tree at the first page its
// allocator handed out), but writes it last.
func (b *builder) build(next func() ([]byte, []byte, bool, error)) error {
	hdr, err := b.alloc()
	if err != nil {
		return err
	}
	leaf, err := b.alloc()
	if err != nil {
		return err
	}
	b.openLevel(pageLeaf).pno = leaf
	for {
		key, val, ok, err := next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if len(key) > b.t.MaxKeyLen() {
			return fmt.Errorf("%w: %d > %d", ErrKeyTooBig, len(key), b.t.MaxKeyLen())
		}
		if b.n > 0 && bytes.Compare(key, b.last) <= 0 {
			return fmt.Errorf("btree: Build key %q does not follow %q", key, b.last)
		}
		if err := b.add(key, val); err != nil {
			return err
		}
	}
	root, height, err := b.finish()
	if err != nil {
		return err
	}
	hp := make([]byte, b.pg.BlockSize())
	copy(hp, encodeHeader(root, height))
	if err := b.pg.WriteFresh(b.op, hdr, hp); err != nil {
		return err
	}
	b.t.hdrPno, b.t.root, b.t.height = hdr, root, height
	return nil
}

// add appends one pair to the open leaf, finishing the leaf first when
// the pair's cell does not fit.
func (b *builder) add(key, val []byte) error {
	var enc []byte
	if fitsEmptyLeaf(b.pg.BlockSize(), len(key), len(val)) {
		enc = encodeLeafCell(nil, key, val, uint64(len(val)), 0)
	} else {
		ovf, err := b.overflow(val)
		if err != nil {
			return err
		}
		enc = encodeLeafCell(nil, key, nil, uint64(len(val)), ovf)
	}
	l := b.levels[0]
	if !l.p.insertRaw(l.p.ncells(), enc) {
		right, err := b.alloc()
		if err != nil {
			return err
		}
		if err := b.finishLeaf(right); err != nil {
			return err
		}
		l.newPage(pageLeaf)
		l.p.setPtrB(l.pno)
		l.pno = right
		if !l.p.insertRaw(0, enc) {
			return fmt.Errorf("%w: a %d-byte cell does not fit an empty leaf", ErrCorrupt, len(enc))
		}
	}
	b.last = append(b.last[:0], key...)
	b.n++
	return nil
}

// finishLeaf writes the open leaf, chained to right (0 = the last leaf),
// and hands it to its parent with the leaf's last key as its bound.
func (b *builder) finishLeaf(right uint64) error {
	l := b.levels[0]
	l.p.setPtrA(right)
	if err := b.pg.WriteFresh(b.op, l.pno, l.p.data); err != nil {
		return err
	}
	return b.push(1, b.last, l.pno)
}

// push hands child, whose keys are all ≤ key, to the open page of level
// i, making the level when it is the first child there. When the child
// held back before it does not fit as a cell, the page is finished with
// that child as its rightmost pointer and handed up in turn.
func (b *builder) push(i int, key []byte, child uint64) error {
	if i == len(b.levels) {
		b.openLevel(pageInternal)
	}
	l := b.levels[i]
	if l.pending && !l.p.insertRaw(l.p.ncells(), encodeInternalCell(nil, l.pendKey, l.pendChild)) {
		if err := b.finishInternal(i); err != nil {
			return err
		}
		l.newPage(pageInternal)
	}
	l.pendKey = append(l.pendKey[:0], key...)
	l.pendChild, l.pending = child, true
	return nil
}

// finishInternal writes the open page of level i, its held-back child
// as the rightmost pointer, and hands the page up to level i+1.
func (b *builder) finishInternal(i int) error {
	pno, err := b.writeInternal(i)
	if err != nil {
		return err
	}
	return b.push(i+1, b.levels[i].pendKey, pno)
}

// writeInternal writes the open page of level i, its held-back child as
// the rightmost pointer, and returns the page's number.
func (b *builder) writeInternal(i int) (uint64, error) {
	l := b.levels[i]
	l.p.setPtrA(l.pendChild)
	l.pending = false
	pno, err := b.alloc()
	if err != nil {
		return 0, err
	}
	return pno, b.pg.WriteFresh(b.op, pno, l.p.data)
}

// finish writes every open page, bottom-up, and returns the root and the
// height. The top level has one page, the root: a level above it would
// have been made by a finished page of its own.
func (b *builder) finish() (uint64, int, error) {
	if len(b.levels) == 1 {
		l := b.levels[0]
		return l.pno, 1, b.pg.WriteFresh(b.op, l.pno, l.p.data)
	}
	if err := b.finishLeaf(0); err != nil {
		return 0, 0, err
	}
	for i := 1; i < len(b.levels)-1; i++ {
		if err := b.finishInternal(i); err != nil {
			return 0, 0, err
		}
	}
	top := len(b.levels) - 1
	root, err := b.writeInternal(top)
	return root, top + 1, err
}

// overflow writes val as a chain of overflow pages and returns the first.
func (b *builder) overflow(val []byte) (uint64, error) {
	if b.ovf == nil {
		b.ovf = make([]byte, b.pg.BlockSize())
	}
	capacity := ovfCapacity(len(b.ovf))
	first, err := b.alloc()
	if err != nil {
		return 0, err
	}
	for pno, off := first, 0; off < len(val); off += capacity {
		end := min(off+capacity, len(val))
		var next uint64
		if end < len(val) {
			if next, err = b.alloc(); err != nil {
				return 0, err
			}
		}
		clear(b.ovf)
		fillOverflow(b.ovf, val[off:end], next)
		if err := b.pg.WriteFresh(b.op, pno, b.ovf); err != nil {
			return 0, err
		}
		pno = next
	}
	return first, nil
}
