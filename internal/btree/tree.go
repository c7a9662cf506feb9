package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/buddy"
	"repro/internal/pager"
	"repro/internal/redo"
	"repro/internal/undo"
)

// PageAllocator provides single-page allocation for tree growth. The
// volume implements it on top of the buddy allocator. The tree never
// calls it directly: every allocation and free goes through a
// pager.Space, which takes the operation and logs the mutation in it.
type PageAllocator interface {
	AllocPage() (uint64, error)
	FreePage(no uint64) error
}

// pageRuns presents a PageAllocator as the one-block runs of a
// pager.BlockAllocator.
type pageRuns struct{ a PageAllocator }

func (r pageRuns) Alloc(uint64) (uint64, error)  { return r.a.AllocPage() }
func (r pageRuns) FreeSectors(s, _ uint64) error { return r.a.FreePage(s >> buddy.SectorShift) }

// AllocSectorsAt is never asked of a tree's Space: the runs a dropped tree
// gave up come back through the volume allocator's (Space.Reclaim).
func (r pageRuns) AllocSectorsAt(uint64, uint64) error { return errors.ErrUnsupported }

// Header page field offsets.
const (
	hOffMagic  = 4
	hOffRoot   = 8
	hOffHeight = 16
	treeMagic  = 0x68464144 // "hFAD"
	// Bytes 24–31 are reserved. Images written before the key count was
	// derived hold a count there; nothing reads it.
)

// Stats counts tree operations for the traversal-accounting experiments.
type Stats struct {
	Descents      int64 // logical lookups/mutations that walked the tree
	LevelsTouched int64 // pages visited during descents
	Splits        int64
	Merges        int64
}

// Tree is a B+tree rooted at a header page. All methods are safe for
// concurrent use; mutations take an exclusive lock.
type Tree struct {
	pg     *pager.Pager
	space  pager.Space
	hdrPno uint64

	mu     sync.RWMutex
	root   uint64
	height int    // 1 = root is a leaf
	gen    uint64 // bumped on every mutation; lets cursors detect staleness

	statMu sync.Mutex
	stats  Stats
}

// Create makes a new empty tree, unlogged, returning it and the header
// page number by which it can be reopened: the volume's trees are made
// when it is formatted. It is Build of nothing without an operation; a
// tree made inside an operation is built whole by Build.
func Create(pg *pager.Pager, alloc PageAllocator) (*Tree, error) {
	return Build(pg, alloc, nil, func() ([]byte, []byte, bool, error) { return nil, nil, false, nil })
}

// Open loads an existing tree from its header page.
func Open(pg *pager.Pager, alloc PageAllocator, headerPno uint64) (*Tree, error) {
	t := &Tree{pg: pg, space: pager.NewSpace(pg, pageRuns{alloc}), hdrPno: headerPno}
	err := pg.With(headerPno, func(hp *pager.Page) error {
		d := hp.Data()
		if d[offType] != pageHeader || binary.LittleEndian.Uint32(d[hOffMagic:]) != treeMagic {
			return fmt.Errorf("%w: page %d is not a tree header", ErrCorrupt, headerPno)
		}
		t.root = binary.LittleEndian.Uint64(d[hOffRoot:])
		t.height = int(binary.LittleEndian.Uint64(d[hOffHeight:]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// HeaderPage returns the page number identifying this tree on the volume.
func (t *Tree) HeaderPage() uint64 { return t.hdrPno }

// Len returns the number of keys in the tree, counted by leaf arithmetic
// (CountRange): no log record owns a per-tree count, so none is kept. It
// is 0 when a page cannot be read.
func (t *Tree) Len() uint64 {
	n, err := t.CountRange(nil, nil, 0)
	if err != nil {
		return 0
	}
	return uint64(n)
}

// Height returns the number of levels (1 = root is a leaf).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// Stats returns a snapshot of operation counters.
func (t *Tree) Stats() Stats {
	t.statMu.Lock()
	defer t.statMu.Unlock()
	return t.stats
}

func (t *Tree) addStats(descents, levels, splits, merges int64) {
	t.statMu.Lock()
	t.stats.Descents += descents
	t.stats.LevelsTouched += levels
	t.stats.Splits += splits
	t.stats.Merges += merges
	t.statMu.Unlock()
}

// writeHeaderOp persists the root and height into the header page and
// emits a header range record into op (nil = unlogged). Only tree
// creation and root-changing structure modifications write the header,
// and their replay must see the new root and height.
func (t *Tree) writeHeaderOp(op *pager.Op) error {
	return t.pg.With(t.hdrPno, func(hp *pager.Page) error {
		hb := encodeHeader(t.root, t.height)
		copy(hp.Data()[:len(hb)], hb)
		if op != nil {
			t.pg.MarkDirtyRec(hp, op, redo.KindRange, redo.EncodeRange(0, hb))
		} else {
			t.pg.MarkDirty(hp)
		}
		return nil
	})
}

// MaxKeyLen returns the largest key this tree accepts.
func (t *Tree) MaxKeyLen() int { return t.pg.BlockSize() / 8 }

// maxInlineValue is the largest value a put stores inside a leaf cell: a
// quarter page, so that a leaf keeps room for several cells and a split
// has cells to divide. Build, whose leaves never split, keeps any value
// whose cell fits an empty leaf (fitsEmptyLeaf).
func (t *Tree) maxInlineValue() int { return t.pg.BlockSize() / 4 }

// Get returns the value for key, or ErrNotFound.
func (t *Tree) Get(key []byte) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.getLocked(key)
}

func (t *Tree) getLocked(key []byte) ([]byte, error) {
	pno := t.root
	levels := int64(0)
	for {
		var out []byte
		var ovf, total uint64
		leaf := false
		err := t.pg.With(pno, func(pg *pager.Page) error {
			p := pageRef{pg.Data()}
			switch p.typ() {
			case pageInternal:
				idx, _, err := p.search(key)
				if err != nil {
					return err
				}
				pno, err = p.childAt(idx)
				return err
			case pageLeaf:
				leaf = true
				idx, found, err := p.search(key)
				if err != nil {
					return err
				}
				if !found {
					return ErrNotFound
				}
				c, err := p.decodeCell(idx)
				if err != nil {
					return err
				}
				if ovf, total = c.overflow, c.totalLen; ovf == 0 {
					out = make([]byte, len(c.val))
					copy(out, c.val)
				}
				return nil
			default:
				return fmt.Errorf("%w: page %d type %d in descent", ErrCorrupt, pno, p.typ())
			}
		})
		levels++
		switch {
		case errors.Is(err, ErrNotFound):
			t.addStats(1, levels, 0, 0)
			return nil, err
		case err != nil:
			return nil, err
		case !leaf:
			continue
		}
		// An overflow chain is read once the leaf's pin is gone.
		if ovf != 0 {
			if out, err = t.readOverflow(ovf, total); err != nil {
				return nil, err
			}
		}
		t.addStats(1, levels, 0, 0)
		return out, nil
	}
}

// cellValue materializes a leaf cell's full value — the inline bytes
// copied out, or the overflow chain reassembled. Used by mutation paths
// to capture a key's old value for its undo record.
func (t *Tree) cellValue(c cell) ([]byte, error) {
	if c.overflow == 0 {
		return append([]byte(nil), c.val...), nil
	}
	return t.readOverflow(c.overflow, c.totalLen)
}

// value returns a copied cell's value, reading its overflow chain. Called
// once the leaf's pin is gone, it never pins a chain page beside the leaf.
func (t *Tree) value(cc cellCopy) ([]byte, error) {
	if cc.ovf == 0 {
		return cc.val, nil
	}
	return t.readOverflow(cc.ovf, cc.total)
}

// Has reports whether key is present.
func (t *Tree) Has(key []byte) (bool, error) {
	_, err := t.Get(key)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, ErrNotFound):
		return false, nil
	default:
		return false, err
	}
}

// pathElem records one step of a root-to-leaf descent.
type pathElem struct {
	pno uint64
	idx int // cell index taken; ncells() means ptrA (rightmost)
}

// descend walks from the root to the leaf that should hold key, returning
// the path of internal steps and the leaf page number.
func (t *Tree) descend(key []byte) ([]pathElem, uint64, error) {
	var path []pathElem
	pno := t.root
	for level := 0; level < t.height-1; level++ {
		var idx int
		var child uint64
		err := t.pg.With(pno, func(pg *pager.Page) error {
			p := pageRef{pg.Data()}
			if p.typ() != pageInternal {
				return fmt.Errorf("%w: expected internal page at %d", ErrCorrupt, pno)
			}
			var err error
			if idx, _, err = p.search(key); err != nil {
				return err
			}
			child, err = p.childAt(idx)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		path = append(path, pathElem{pno, idx})
		pno = child
	}
	return path, pno, nil
}

// Put inserts or replaces the value for key.
func (t *Tree) Put(key, val []byte) error {
	return t.PutOp(nil, key, val)
}

// PutOp is Put emitting physiological redo records into op (nil = no
// logging): a typed cell-put record for the landing leaf, range records
// for overflow pages, and — when the insert splits — an auto-committed
// system transaction for the structural change.
func (t *Tree) PutOp(op *pager.Op, key, val []byte) error {
	if len(key) > t.MaxKeyLen() {
		return fmt.Errorf("%w: %d > %d", ErrKeyTooBig, len(key), t.MaxKeyLen())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.putLocked(op, key, val, true)
}

// PutOpNoInverse is PutOp staging no inverse: for a caller whose own
// inverses take the put back, or whose puts need none.
func (t *Tree) PutOpNoInverse(op *pager.Op, key, val []byte) error {
	if len(key) > t.MaxKeyLen() {
		return fmt.Errorf("%w: %d > %d", ErrKeyTooBig, len(key), t.MaxKeyLen())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.putLocked(op, key, val, false)
}

// PutMany inserts or replaces a batch of key/value pairs under a single
// lock acquisition. Pairs are applied in sorted key order so successive
// descents land on the same or adjacent leaves (one descent *region* per
// batch instead of one random walk per pair) — the batched multi-put that
// index stores expose for group-committed ingest. Duplicate keys within
// the batch resolve last-wins in input order.
func (t *Tree) PutMany(keys, vals [][]byte) error {
	return t.PutManyOp(nil, keys, vals)
}

// PutManyOp is PutMany emitting redo records into op.
func (t *Tree) PutManyOp(op *pager.Op, keys, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("btree: PutMany got %d keys, %d vals", len(keys), len(vals))
	}
	for _, k := range keys {
		if len(k) > t.MaxKeyLen() {
			return fmt.Errorf("%w: %d > %d", ErrKeyTooBig, len(k), t.MaxKeyLen())
		}
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return bytes.Compare(keys[order[a]], keys[order[b]]) < 0
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, i := range order {
		if err := t.putLocked(op, keys[i], vals[i], true); err != nil {
			return err
		}
	}
	return nil
}

// putLocked is Put's body; the caller holds t.mu exclusively and has
// validated the key length. One put is one atomic section: the inverse
// (when inverse is set), an overflow chain's allocation or free, and the
// leaf record that links or unlinks it reach the log together.
func (t *Tree) putLocked(op *pager.Op, key, val []byte, inverse bool) error {
	op.BeginAtomic()
	defer op.EndAtomic()
	t.gen++

	path, leafPno, err := t.descend(key)
	if err != nil {
		return err
	}
	t.addStats(1, int64(len(path)+1), 0, 0)

	// Prepare the value: spill to overflow chain if large.
	var inlineVal []byte
	var ovfPage uint64
	totalLen := uint64(len(val))
	if len(val) > t.maxInlineValue() {
		ovfPage, err = t.writeOverflow(op, val)
		if err != nil {
			return err
		}
	} else {
		inlineVal = val
	}

	var sys *pager.Op
	var sep []byte
	var rightPno, oldNext uint64
	err = t.pg.With(leafPno, func(pg *pager.Page) error {
		p := pageRef{pg.Data()}
		idx, f, err := p.search(key)
		if err != nil {
			return err
		}
		if f {
			// Replace: free any old overflow chain, remove, reinsert. One put
			// record covers both halves — replay re-executes the replacement.
			c, err := p.decodeCell(idx)
			if err != nil {
				return err
			}
			if inverse && op.UndoEnabled() {
				// Inverse restores the old value; read it (overflow included)
				// before the chain is freed.
				old, err := t.cellValue(c)
				if err != nil {
					return err
				}
				op.StageUndo(undo.KeyPut(t.hdrPno, key, old))
			}
			if c.overflow != 0 {
				if err := t.freeOverflow(op, c.overflow); err != nil {
					return err
				}
			}
			p.removeCell(idx)
		} else if inverse && op.UndoEnabled() {
			op.StageUndo(undo.KeyDel(t.hdrPno, key))
		}
		enc := encodeLeafCell(nil, key, inlineVal, totalLen, ovfPage)
		if p.insertRaw(idx, enc) {
			t.pg.MarkDirtyRec(pg, op, redo.KindBtreeOp, redo.EncodeOp(opPut, enc))
			return nil
		}
		// Leaf is full: split. insertRaw left the page unchanged.
		sys = op.NewSys()
		sep, rightPno, oldNext, err = t.splitLeaf(op, sys, pg, idx, enc)
		return err
	})
	if err != nil {
		return err
	}
	if rightPno != 0 {
		if err := t.linkLeafSplit(sys, path, sep, leafPno, rightPno, oldNext); err != nil {
			return err
		}
	}
	return nil
}

// splitLeaf splits the pinned full leaf pg, inserting the encoded cell at
// logical index idx across the split pair. It returns the separator, the
// new right page and the leaf's old right neighbour; linkLeafSplit hooks
// the new page into the tree once pg's pin is gone.
//
// The structural change (cell redistribution, chain stitch, separator
// propagation, root growth) is logged as one auto-committed *system
// transaction*: neighbours may commit records that target the pages the
// split creates, so recovery must redo the split whether or not this
// operation's own transaction commits. The inserted cell itself belongs
// to the enclosing operation and is logged into op, after the split
// records, as an ordinary put against whichever half it landed on —
// replay re-partitions the committed cells around the recorded separator
// and then re-inserts the cell, so the always-redone split never carries
// the (possibly uncommitted) new cell. An append split whose operation
// never commits thus replays to an empty right leaf, which later puts
// fill as any other.
func (t *Tree) splitLeaf(op, sys *pager.Op, pg *pager.Page, idx int, enc []byte) (sep []byte, rightPno, oldNext uint64, err error) {
	p := pageRef{pg.Data()}
	n := p.ncells()
	// Collect raw cells plus the new one at idx.
	raws := make([][]byte, 0, n+1)
	keys := make([][]byte, 0, n+1)
	for i := 0; i < n; i++ {
		off := p.slot(i)
		sz := p.cellLenAt(off)
		raw := make([]byte, sz)
		copy(raw, p.data[off:off+sz])
		c, err := p.decodeCell(i)
		if err != nil {
			return nil, 0, 0, err
		}
		k := make([]byte, len(c.key))
		copy(k, c.key)
		raws = append(raws, raw)
		keys = append(keys, k)
	}
	newKey := decodeKeyFromRaw(enc)
	raws = append(raws[:idx], append([][]byte{enc}, raws[idx:]...)...)
	keys = append(keys[:idx], append([][]byte{newKey}, keys[idx:]...)...)

	// An append splits at the insert point: the left leaf keeps every
	// old cell, and the right leaf starts with the new one alone, so a
	// tree that grows at its right edge leaves full leaves behind.
	splitAt := n
	if idx < n {
		splitAt = midSplit(raws, len(pg.Data())-hdrSize)
	}

	if rightPno, err = t.space.Alloc(sys, 1); err != nil {
		return nil, 0, 0, err
	}
	sep = keys[splitAt-1]
	oldNext = p.ptrA()
	err = t.pg.WithZero(rightPno, func(rpg *pager.Page) error {
		rp := initPage(rpg.Data(), pageLeaf)
		oldPrev := p.ptrB()
		// Rewrite left in place.
		lp := initPage(pg.Data(), pageLeaf)
		for i := 0; i < splitAt; i++ {
			if !lp.insertRaw(i, raws[i]) {
				return fmt.Errorf("%w: split left overflow", ErrCorrupt)
			}
		}
		for i := splitAt; i < len(raws); i++ {
			if !rp.insertRaw(i-splitAt, raws[i]) {
				return fmt.Errorf("%w: split right overflow", ErrCorrupt)
			}
		}
		// Fix leaf chain: oldPrev <-> left <-> right <-> oldNext.
		rp.setPtrA(oldNext)
		rp.setPtrB(pg.No())
		lp.setPtrA(rightPno)
		lp.setPtrB(oldPrev)
		t.pg.MarkDirtyRec(pg, sys, redo.KindBtreeOp,
			redo.EncodeOp(opSplitLeaf, redo.U64(rightPno), redo.Key(sep)))
		t.pg.MarkDirty(rpg)
		// The enclosing operation's cell, stamped after the split records so
		// replay lands it on the rebuilt half.
		if idx < splitAt {
			t.pg.MarkDirtyRec(pg, op, redo.KindBtreeOp, redo.EncodeOp(opPut, enc))
		} else {
			t.pg.MarkDirtyRec(rpg, op, redo.KindBtreeOp, redo.EncodeOp(opPut, enc))
		}
		return nil
	})
	if err != nil {
		_ = t.freePage(sys, rightPno) // never joined the tree
		return nil, 0, 0, err
	}
	return sep, rightPno, oldNext, nil
}

// midSplit is the byte-midpoint split point of raws: the left side grows
// toward half the total but never beyond capacity, so max-size cells
// cannot overflow either half.
func midSplit(raws [][]byte, capacity int) int {
	total := 0
	for _, r := range raws {
		total += len(r) + 2
	}
	splitAt, acc := 0, 0
	for i, r := range raws {
		sz := len(r) + 2
		if splitAt > 0 && (acc >= total/2 || acc+sz > capacity) {
			break
		}
		acc += sz
		splitAt = i + 1
	}
	return min(splitAt, len(raws)-1)
}

// linkLeafSplit finishes splitLeaf's system transaction: the old right
// neighbour's back pointer moves to the new right half, and the separator
// goes up into the parent.
func (t *Tree) linkLeafSplit(sys *pager.Op, path []pathElem, sep []byte, leafPno, rightPno, oldNext uint64) error {
	var err error
	if oldNext != 0 {
		err = t.pg.With(oldNext, func(npg *pager.Page) error {
			pageRef{npg.Data()}.setPtrB(rightPno)
			t.pg.MarkDirtyRec(npg, sys, redo.KindRange, redo.EncodeRange(offPtrB, redo.U64(rightPno)))
			return nil
		})
	}
	if err == nil {
		t.addStats(0, 0, 1, 0)
		err = t.insertSeparator(sys, path, sep, leafPno, rightPno)
	}
	// Append whatever was staged even on error: each record was staged
	// right after its mutation landed in cache, so the log stays
	// consistent with the (possibly partially split) in-cache tree —
	// and the enclosing op's own records, which the volume's bracket
	// (core.withOp) commits even on failure, may already target the new
	// right page.
	aerr := sys.AppendSys()
	if err != nil {
		return err
	}
	return aerr
}

// decodeKeyFromRaw extracts the key bytes from an encoded cell.
func decodeKeyFromRaw(raw []byte) []byte {
	klen, n := binary.Uvarint(raw)
	return raw[n : n+int(klen)]
}

// insertSeparator inserts (sep → leftPno) into the parent at the end of
// path, where the existing reference at that position currently reaches
// leftPno and must now reach rightPno. Splits parents as needed. Every
// record, allocations included, goes into sys.
func (t *Tree) insertSeparator(sys *pager.Op, path []pathElem, sep []byte, leftPno, rightPno uint64) error {
	if len(path) == 0 {
		// Split the root: create a new internal root.
		newRoot, err := t.space.Alloc(sys, 1)
		if err != nil {
			return err
		}
		err = t.pg.WithZero(newRoot, func(pg *pager.Page) error {
			p := initPage(pg.Data(), pageInternal)
			if !p.insertRaw(0, encodeInternalCell(nil, sep, leftPno)) {
				return fmt.Errorf("%w: root separator does not fit", ErrCorrupt)
			}
			p.setPtrA(rightPno)
			t.pg.MarkDirtyRec(pg, sys, redo.KindBtreeOp,
				redo.EncodeOp(opNewRoot, redo.U64(leftPno), redo.U64(rightPno), redo.Key(sep)))
			return nil
		})
		if err != nil {
			_ = t.freePage(sys, newRoot) // never joined the tree
			return err
		}
		t.root = newRoot
		t.height++
		// Replay must see the new root: the header record rides the same
		// system transaction.
		return t.writeHeaderOp(sys)
	}

	parent := path[len(path)-1]
	var promoted []byte
	var splitPno uint64
	err := t.pg.With(parent.pno, func(pg *pager.Page) error {
		p := pageRef{pg.Data()}
		// The child pointer at parent.idx must be redirected to rightPno; the
		// new cell (sep, leftPno) is inserted at parent.idx.
		if parent.idx < p.ncells() {
			// Existing cell keeps its key but child becomes rightPno.
			c, err := p.decodeCell(parent.idx)
			if err != nil {
				return err
			}
			k := make([]byte, len(c.key))
			copy(k, c.key)
			p.removeCell(parent.idx)
			if !p.insertRaw(parent.idx, encodeInternalCell(nil, k, rightPno)) {
				// Removing then failing to reinsert would corrupt the page;
				// removeCell only moved slots, so re-adding must succeed
				// because the cell was just removed. Compaction guarantees it.
				return fmt.Errorf("%w: reinsert of redirected cell failed", ErrCorrupt)
			}
			t.pg.MarkDirtyRec(pg, sys, redo.KindBtreeOp,
				redo.EncodeOp(opRedirect, redo.Key(k), redo.U64(rightPno)))
		} else {
			p.setPtrA(rightPno)
			t.pg.MarkDirtyRec(pg, sys, redo.KindRange, redo.EncodeRange(offPtrA, redo.U64(rightPno)))
		}
		encNew := encodeInternalCell(nil, sep, leftPno)
		if p.insertRaw(parent.idx, encNew) {
			t.pg.MarkDirtyRec(pg, sys, redo.KindBtreeOp, redo.EncodeOp(opPut, encNew))
			return nil
		}
		// Parent full: split it.
		var err error
		promoted, splitPno, err = t.splitInternal(sys, pg, parent.idx, sep, leftPno)
		return err
	})
	if err != nil || splitPno == 0 {
		return err
	}
	t.addStats(0, 0, 1, 0)
	return t.insertSeparator(sys, path[:len(path)-1], promoted, parent.pno, splitPno)
}

// splitInternal splits the pinned full internal node pg while inserting
// cell (sep, leftPno) at index idx, returning the key promoted to the
// parent and the new right page. Internal pages are mutated only by
// system transactions, so replay re-executes the identical middle-cell
// split against identical cells.
func (t *Tree) splitInternal(sys *pager.Op, pg *pager.Page, idx int, sep []byte, leftPno uint64) ([]byte, uint64, error) {
	p := pageRef{pg.Data()}
	n := p.ncells()
	type icell struct {
		key   []byte
		child uint64
	}
	cells := make([]icell, 0, n+1)
	for i := 0; i < n; i++ {
		c, err := p.decodeCell(i)
		if err != nil {
			return nil, 0, err
		}
		k := make([]byte, len(c.key))
		copy(k, c.key)
		cells = append(cells, icell{k, c.child})
	}
	newCell := icell{append([]byte(nil), sep...), leftPno}
	cells = append(cells[:idx], append([]icell{newCell}, cells[idx:]...)...)
	rightMost := p.ptrA()

	// Choose middle cell m to promote.
	m := len(cells) / 2
	promoted := cells[m]

	rightPno, err := t.space.Alloc(sys, 1)
	if err != nil {
		return nil, 0, err
	}
	err = t.pg.WithZero(rightPno, func(rpg *pager.Page) error {
		rp := initPage(rpg.Data(), pageInternal)
		for i := m + 1; i < len(cells); i++ {
			if !rp.insertRaw(i-m-1, encodeInternalCell(nil, cells[i].key, cells[i].child)) {
				return fmt.Errorf("%w: internal split right overflow", ErrCorrupt)
			}
		}
		rp.setPtrA(rightMost)

		lp := initPage(pg.Data(), pageInternal)
		for i := 0; i < m; i++ {
			if !lp.insertRaw(i, encodeInternalCell(nil, cells[i].key, cells[i].child)) {
				return fmt.Errorf("%w: internal split left overflow", ErrCorrupt)
			}
		}
		lp.setPtrA(promoted.child)

		t.pg.MarkDirtyRec(pg, sys, redo.KindBtreeOp,
			redo.EncodeOp(opSplitInternal, redo.U64(rightPno), redo.U64(leftPno), redo.Key(sep)))
		t.pg.MarkDirty(rpg)
		return nil
	})
	if err != nil {
		_ = t.freePage(sys, rightPno) // never joined the tree
		return nil, 0, err
	}
	return promoted.key, rightPno, nil
}

// Delete removes key from the tree, returning ErrNotFound if absent.
func (t *Tree) Delete(key []byte) error {
	return t.DeleteOp(nil, key)
}

// DeleteOp is Delete emitting a typed delete record into op. When op is
// non-nil, merge rebalancing of an underfull leaf is *deferred* until the
// deleting transaction has committed (via op.Defer): a merge is a system
// transaction redone unconditionally at recovery, and running it while
// the delete is still uncommitted would let replay pack the undeleted
// cell plus the whole sibling into one page. Lazy merging is optional
// work, so deferral costs nothing but a short-lived underfull node.
func (t *Tree) DeleteOp(op *pager.Op, key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	op.BeginAtomic()
	defer op.EndAtomic()
	t.gen++

	path, leafPno, err := t.descend(key)
	if err != nil {
		return err
	}
	t.addStats(1, int64(len(path)+1), 0, 0)

	var underfull bool
	err = t.pg.With(leafPno, func(pg *pager.Page) error {
		p := pageRef{pg.Data()}
		idx, found, err := p.search(key)
		if err != nil {
			return err
		}
		if !found {
			return ErrNotFound
		}
		c, err := p.decodeCell(idx)
		if err != nil {
			return err
		}
		if op.UndoEnabled() {
			// Inverse re-inserts the old value; read it (overflow included)
			// before the chain is freed.
			old, err := t.cellValue(c)
			if err != nil {
				return err
			}
			op.StageUndo(undo.KeyPut(t.hdrPno, key, old))
		}
		if c.overflow != 0 {
			if err := t.freeOverflow(op, c.overflow); err != nil {
				return err
			}
		}
		p.removeCell(idx)
		t.pg.MarkDirtyRec(pg, op, redo.KindBtreeOp, redo.EncodeOp(opDel, key))
		underfull = p.usedBytes() < len(pg.Data())/4
		return nil
	})
	if err != nil || !underfull || len(path) == 0 {
		return err
	}
	if op != nil {
		k := append([]byte(nil), key...)
		op.Defer(func(sys *pager.Op) error { return t.Rebalance(sys, k) })
		return nil
	}
	return t.maybeMerge(nil, path, leafPno)
}

// Rebalance re-checks the leaf containing key and merges it with a
// sibling if it is underfull — the deferred half of DeleteOp, run after
// the deleting transaction committed, with sys as the merge's system
// transaction capture.
func (t *Tree) Rebalance(sys *pager.Op, key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++

	path, leafPno, err := t.descend(key)
	if err != nil {
		return err
	}
	if len(path) == 0 {
		return nil
	}
	var underfull bool
	err = t.pg.With(leafPno, func(pg *pager.Page) error {
		underfull = pageRef{pg.Data()}.usedBytes() < len(pg.Data())/4
		return nil
	})
	if err != nil || !underfull {
		return err
	}
	return t.maybeMerge(sys, path, leafPno)
}

// maybeMerge attempts to merge the node at nodePno (whose parent path is
// given) with an adjacent sibling if their combined cells fit in one page.
// Lazy rebalancing: if no merge fits, the tree is left as is. Records go
// into sys (nil = unlogged).
func (t *Tree) maybeMerge(sys *pager.Op, path []pathElem, nodePno uint64) error {
	parent := path[len(path)-1]
	var merged, underfull, rootEmpty bool
	var newRoot uint64
	err := t.pg.With(parent.pno, func(ppg *pager.Page) error {
		pp := pageRef{ppg.Data()}
		if cur, err := pp.childAt(parent.idx); err != nil || cur != nodePno {
			// A stale path shouldn't happen under the tree lock; skip it.
			return err
		}
		// Try merging cur with its right sibling first, else with its left.
		var lefts []int
		if parent.idx < pp.ncells() {
			lefts = append(lefts, parent.idx)
		}
		if parent.idx > 0 {
			lefts = append(lefts, parent.idx-1)
		}
		for _, li := range lefts {
			leftPno, err := pp.childAt(li)
			if err != nil {
				return err
			}
			rightPno, err := pp.childAt(li + 1)
			if err != nil {
				return err
			}
			if merged, err = t.tryMergePair(sys, pp, leftPno, rightPno, li); err != nil {
				return err
			}
			if merged {
				t.pg.MarkDirtyRec(ppg, sys, redo.KindBtreeOp,
					redo.EncodeOp(opMerge, redo.U64(leftPno), redo.U64(rightPno)))
				underfull = pp.usedBytes() < len(ppg.Data())/4
				if rootEmpty = parent.pno == t.root && pp.ncells() == 0; rootEmpty {
					newRoot = pp.ptrA()
				}
				return nil
			}
		}
		return nil
	})
	if err != nil || !merged {
		return err
	}
	t.addStats(0, 0, 0, 1)
	if rootEmpty {
		// Collapse the root.
		if err := t.freePage(sys, parent.pno); err != nil {
			return err
		}
		t.root = newRoot
		t.height--
		// Replay must see the shorter tree.
		return t.writeHeaderOp(sys)
	}
	if underfull && len(path) > 1 {
		return t.maybeMerge(sys, path[:len(path)-1], parent.pno)
	}
	return nil
}

// tryMergePair merges right into left if all cells fit in one page.
// li is the parent cell index referring to left. On success the parent
// cell for left is removed and the reference to right is redirected to
// left; the right page is freed. The caller holds the parent page pp
// pinned and emits the covering opMerge record; only the next-leaf
// back-pointer stitch is recorded here.
func (t *Tree) tryMergePair(sys *pager.Op, pp pageRef, leftPno, rightPno uint64, li int) (bool, error) {
	merged := false
	err := t.pg.With(leftPno, func(lpg *pager.Page) error {
		return t.pg.With(rightPno, func(rpg *pager.Page) error {
			lp, rp := pageRef{lpg.Data()}, pageRef{rpg.Data()}
			if lp.typ() != rp.typ() {
				return fmt.Errorf("%w: sibling type mismatch", ErrCorrupt)
			}
			// Size check: combined used bytes (+ separator cell for internals).
			need := lp.usedBytes() + rp.usedBytes()
			var sepKey []byte
			if lp.typ() == pageInternal {
				c, err := pp.decodeCell(li)
				if err != nil {
					return err
				}
				sepKey = append([]byte(nil), c.key...)
				need += encodedInternalCellSize(len(sepKey)) + 2
			}
			if need > len(lpg.Data())-hdrSize {
				return nil
			}
			// The size check above guarantees the absorb fits; a failure
			// here means the accounting is broken, so surface corruption.
			if lp.typ() == pageInternal {
				// Absorb left.ptrA under the separator key, then right's cells.
				if !lp.insertRaw(lp.ncells(), encodeInternalCell(nil, sepKey, lp.ptrA())) {
					return fmt.Errorf("%w: merge overflow despite size check", ErrCorrupt)
				}
			}
			for i := 0; i < rp.ncells(); i++ {
				off := rp.slot(i)
				sz := rp.cellLenAt(off)
				raw := make([]byte, sz)
				copy(raw, rp.data[off:off+sz])
				if !lp.insertRaw(lp.ncells(), raw) {
					return fmt.Errorf("%w: merge overflow despite size check", ErrCorrupt)
				}
			}
			if lp.typ() == pageInternal {
				lp.setPtrA(rp.ptrA())
			} else {
				// Fix leaf chain: left <-> right.next.
				next := rp.ptrA()
				lp.setPtrA(next)
				if next != 0 {
					err := t.pg.With(next, func(npg *pager.Page) error {
						pageRef{npg.Data()}.setPtrB(leftPno)
						t.pg.MarkDirtyRec(npg, sys, redo.KindRange, redo.EncodeRange(offPtrB, redo.U64(leftPno)))
						return nil
					})
					if err != nil {
						return err
					}
				}
			}
			t.pg.MarkDirty(lpg)
			merged = true
			return nil
		})
	})
	if err != nil || !merged {
		return false, err
	}

	// Parent: remove the cell for left; redirect right's reference to left.
	ri := li + 1
	if ri < pp.ncells() {
		c, err := pp.decodeCell(ri)
		if err != nil {
			return false, err
		}
		k := append([]byte(nil), c.key...)
		pp.removeCell(ri)
		if !pp.insertRaw(ri, encodeInternalCell(nil, k, leftPno)) {
			return false, fmt.Errorf("%w: parent redirect failed", ErrCorrupt)
		}
	} else {
		pp.setPtrA(leftPno)
	}
	pp.removeCell(li)
	return true, t.freePage(sys, rightPno)
}

func (t *Tree) freePage(op *pager.Op, pno uint64) error {
	if err := t.pg.Invalidate(pno); err != nil {
		return err
	}
	return t.space.Free(op, pno, 1)
}

// Drop frees every page owned by the tree — nodes, overflow chains, and
// the header — logging the frees into op. It edits no page and stages one
// inverse for all of them before it frees any, so a rollback takes the
// pages back intact; the pages leave the cache only once op commits. The
// tree must not be used afterwards.
func (t *Tree) Drop(op *pager.Op) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++

	var pages []uint64
	var walk func(pno uint64) error
	walk = func(pno uint64) error {
		var children, overflows []uint64
		err := t.pg.With(pno, func(pg *pager.Page) error {
			p := pageRef{pg.Data()}
			switch p.typ() {
			case pageInternal:
				for i := 0; i < p.ncells(); i++ {
					c, err := p.decodeCell(i)
					if err != nil {
						return err
					}
					children = append(children, c.child)
				}
				children = append(children, p.ptrA())
			case pageLeaf:
				for i := 0; i < p.ncells(); i++ {
					c, err := p.decodeCell(i)
					if err != nil {
						return err
					}
					if c.overflow != 0 {
						overflows = append(overflows, c.overflow)
					}
				}
			default:
				return fmt.Errorf("%w: drop walk hit page type %d", ErrCorrupt, p.typ())
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, c := range children {
			if err := walk(c); err != nil {
				return err
			}
		}
		for _, o := range overflows {
			chain, err := t.overflowPages(o)
			if err != nil {
				return err
			}
			pages = append(pages, chain...)
		}
		pages = append(pages, pno)
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	pages = append(pages, t.hdrPno)
	return t.space.Drop(op, pages, nil)
}
