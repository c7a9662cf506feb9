package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

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

func (r pageRuns) Alloc(uint64) (uint64, error) { return r.a.AllocPage() }
func (r pageRuns) Free(addr, _ uint64) error    { return r.a.FreePage(addr) }

// Header page field offsets.
const (
	hOffMagic  = 4
	hOffRoot   = 8
	hOffHeight = 16
	hOffNKeys  = 24
	treeMagic  = 0x68464144 // "hFAD"
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
	// creator is the ID of the operation that created the tree (0 when
	// opened, or created unlogged). Until that operation commits nothing
	// else can reach the tree, so the pages its splits allocate belong to
	// the operation, not to the split's system transaction (allocOp).
	creator uint64

	mu     sync.RWMutex
	root   uint64
	height int // 1 = root is a leaf
	nkeys  uint64
	gen    uint64 // bumped on every mutation; lets cursors detect staleness

	statMu sync.Mutex
	stats  Stats
}

// Create allocates and initializes a new empty tree, returning it and the
// header page number by which it can be reopened.
func Create(pg *pager.Pager, alloc PageAllocator) (*Tree, error) {
	return CreateOp(pg, alloc, nil)
}

// CreateOp is Create with the creating operation's redo capture, so trees
// created inside a transaction (fulltext segments) recover with it.
func CreateOp(pg *pager.Pager, alloc PageAllocator, op *pager.Op) (*Tree, error) {
	space := pager.NewSpace(pageRuns{alloc})
	hdr, err := space.Alloc(op, 1)
	if err != nil {
		return nil, err
	}
	rootPno, err := space.Alloc(op, 1)
	if err != nil {
		return nil, err
	}
	t := &Tree{pg: pg, space: space, hdrPno: hdr, root: rootPno, height: 1, creator: op.ID()}
	// Initialize root leaf.
	rp, err := pg.AcquireZero(rootPno)
	if err != nil {
		return nil, err
	}
	initPage(rp.Data(), pageLeaf)
	pg.MarkDirtyRec(rp, op, redo.KindBtreeOp, encOp(opInit, []byte{pageLeaf}))
	pg.Release(rp)
	if err := t.writeHeaderOp(op); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads an existing tree from its header page.
func Open(pg *pager.Pager, alloc PageAllocator, headerPno uint64) (*Tree, error) {
	hp, err := pg.Acquire(headerPno)
	if err != nil {
		return nil, err
	}
	defer pg.Release(hp)
	d := hp.Data()
	if d[offType] != pageHeader || binary.LittleEndian.Uint32(d[hOffMagic:]) != treeMagic {
		return nil, fmt.Errorf("%w: page %d is not a tree header", ErrCorrupt, headerPno)
	}
	return &Tree{
		pg:     pg,
		space:  pager.NewSpace(pageRuns{alloc}),
		hdrPno: headerPno,
		root:   binary.LittleEndian.Uint64(d[hOffRoot:]),
		height: int(binary.LittleEndian.Uint64(d[hOffHeight:])),
		nkeys:  binary.LittleEndian.Uint64(d[hOffNKeys:]),
	}, nil
}

// HeaderPage returns the page number identifying this tree on the volume.
func (t *Tree) HeaderPage() uint64 { return t.hdrPno }

// Len returns the number of keys in the tree.
func (t *Tree) Len() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nkeys
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

// writeHeader persists the header fields into the cached header page
// without logging a record: nkeys is a cross-transaction counter that
// recovery recounts from the leaves, and root/height changes are logged
// by the structure-modification system transactions that make them
// (writeHeaderOp).
func (t *Tree) writeHeader() error {
	return t.writeHeaderOp(nil)
}

// writeHeaderOp additionally emits a header range record into op — used
// at tree creation and by root-changing structure modifications, whose
// replay must see the new root/height.
func (t *Tree) writeHeaderOp(op *pager.Op) error {
	hp, err := t.pg.Acquire(t.hdrPno)
	if err != nil {
		return err
	}
	defer t.pg.Release(hp)
	d := hp.Data()
	hb := headerBytes(t.root, t.height, t.nkeys)
	copy(d[:len(hb)], hb)
	if op != nil {
		t.pg.MarkDirtyRec(hp, op, redo.KindRange, redo.EncodeRange(0, hb))
	} else {
		t.pg.MarkDirty(hp)
	}
	return nil
}

// MaxKeyLen returns the largest key this tree accepts.
func (t *Tree) MaxKeyLen() int { return t.pg.BlockSize() / 8 }

// maxInlineValue is the largest value stored inside a leaf cell.
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
		pg, err := t.pg.Acquire(pno)
		if err != nil {
			return nil, err
		}
		p := pageRef{pg.Data()}
		levels++
		switch p.typ() {
		case pageInternal:
			idx, _, err := p.search(key)
			if err != nil {
				t.pg.Release(pg)
				return nil, err
			}
			if idx < p.ncells() {
				c, err := p.decodeCell(idx)
				if err != nil {
					t.pg.Release(pg)
					return nil, err
				}
				pno = c.child
			} else {
				pno = p.ptrA()
			}
			t.pg.Release(pg)
		case pageLeaf:
			idx, found, err := p.search(key)
			if err != nil {
				t.pg.Release(pg)
				return nil, err
			}
			if !found {
				t.pg.Release(pg)
				t.addStats(1, levels, 0, 0)
				return nil, ErrNotFound
			}
			c, err := p.decodeCell(idx)
			if err != nil {
				t.pg.Release(pg)
				return nil, err
			}
			var out []byte
			if c.overflow == 0 {
				out = make([]byte, len(c.val))
				copy(out, c.val)
				t.pg.Release(pg)
			} else {
				ovf, total := c.overflow, c.totalLen
				t.pg.Release(pg)
				out, err = t.readOverflow(ovf, total)
				if err != nil {
					return nil, err
				}
			}
			t.addStats(1, levels, 0, 0)
			return out, nil
		default:
			t.pg.Release(pg)
			return nil, fmt.Errorf("%w: page %d type %d in descent", ErrCorrupt, pno, p.typ())
		}
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
		pg, err := t.pg.Acquire(pno)
		if err != nil {
			return nil, 0, err
		}
		p := pageRef{pg.Data()}
		if p.typ() != pageInternal {
			t.pg.Release(pg)
			return nil, 0, fmt.Errorf("%w: expected internal page at %d", ErrCorrupt, pno)
		}
		idx, _, err := p.search(key)
		if err != nil {
			t.pg.Release(pg)
			return nil, 0, err
		}
		var child uint64
		if idx < p.ncells() {
			c, err := p.decodeCell(idx)
			if err != nil {
				t.pg.Release(pg)
				return nil, 0, err
			}
			child = c.child
		} else {
			child = p.ptrA()
		}
		t.pg.Release(pg)
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
	return t.putLocked(op, key, val)
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
		if err := t.putLocked(op, keys[i], vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// putLocked is Put's body; the caller holds t.mu exclusively and has
// validated the key length.
func (t *Tree) putLocked(op *pager.Op, key, val []byte) error {
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

	pg, err := t.pg.Acquire(leafPno)
	if err != nil {
		return err
	}
	p := pageRef{pg.Data()}
	idx, found, err := p.search(key)
	if err != nil {
		t.pg.Release(pg)
		return err
	}
	if found {
		// Replace: free any old overflow chain, remove, reinsert. One put
		// record covers both halves — replay re-executes the replacement.
		c, err := p.decodeCell(idx)
		if err != nil {
			t.pg.Release(pg)
			return err
		}
		if op.UndoEnabled() {
			// Inverse restores the old value; read it (overflow included)
			// before the chain is freed.
			old, err := t.cellValue(c)
			if err != nil {
				t.pg.Release(pg)
				return err
			}
			op.StageUndo(undo.KeyPut(t.hdrPno, key, old))
		}
		if c.overflow != 0 {
			if err := t.freeOverflow(op, c.overflow); err != nil {
				t.pg.Release(pg)
				return err
			}
		}
		p.removeCell(idx)
	} else {
		op.StageUndo(undo.KeyDel(t.hdrPno, key))
	}
	enc := encodeLeafCell(nil, key, inlineVal, totalLen, ovfPage)
	if p.insertRaw(idx, enc) {
		t.pg.MarkDirtyRec(pg, op, redo.KindBtreeOp, encOp(opPut, enc))
		t.pg.Release(pg)
		if !found {
			t.nkeys++
		}
		return t.writeHeader()
	}
	// Leaf is full: split. insertRaw left the page unchanged.
	err = t.splitLeafAndInsert(op, pg, leafPno, idx, enc, path)
	if err != nil {
		return err
	}
	if !found {
		t.nkeys++
	}
	return t.writeHeader()
}

// splitLeafAndInsert splits the (pinned) full leaf, inserting the encoded
// cell at logical index idx across the split pair, then propagates the new
// separator upward. Consumes the pin on pg.
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
// the (possibly uncommitted) new cell.
func (t *Tree) splitLeafAndInsert(op *pager.Op, pg *pager.Page, leafPno uint64, idx int, enc []byte, path []pathElem) error {
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
			t.pg.Release(pg)
			return err
		}
		k := make([]byte, len(c.key))
		copy(k, c.key)
		raws = append(raws, raw)
		keys = append(keys, k)
	}
	newKey := decodeKeyFromRaw(enc)
	raws = append(raws[:idx], append([][]byte{enc}, raws[idx:]...)...)
	keys = append(keys[:idx], append([][]byte{newKey}, keys[idx:]...)...)

	// Split point by bytes: grow the left side toward half the total but
	// never beyond page capacity, so max-size cells cannot overflow either
	// half.
	total := 0
	for _, r := range raws {
		total += len(r) + 2
	}
	capacity := len(pg.Data()) - hdrSize
	splitAt, acc := 0, 0
	for i, r := range raws {
		sz := len(r) + 2
		if splitAt > 0 && (acc >= total/2 || acc+sz > capacity) {
			break
		}
		acc += sz
		splitAt = i + 1
	}
	if splitAt >= len(raws) {
		splitAt = len(raws) - 1
	}

	sys := op.NewSys()
	aop := t.allocOp(op, sys)
	rightPno, err := t.space.Alloc(aop, 1)
	if err != nil {
		t.pg.Release(pg)
		return err
	}
	rpg, err := t.pg.AcquireZero(rightPno)
	if err != nil {
		t.pg.Release(pg)
		_ = t.freePage(aop, rightPno) // never joined the tree
		return err
	}
	rp := initPage(rpg.Data(), pageLeaf)

	oldNext := p.ptrA()
	oldPrev := p.ptrB()
	// Rewrite left in place.
	lp := initPage(pg.Data(), pageLeaf)
	for i := 0; i < splitAt; i++ {
		if !lp.insertRaw(i, raws[i]) {
			t.pg.Release(rpg)
			t.pg.Release(pg)
			return fmt.Errorf("%w: split left overflow", ErrCorrupt)
		}
	}
	for i := splitAt; i < len(raws); i++ {
		if !rp.insertRaw(i-splitAt, raws[i]) {
			t.pg.Release(rpg)
			t.pg.Release(pg)
			return fmt.Errorf("%w: split right overflow", ErrCorrupt)
		}
	}
	// Fix leaf chain: oldPrev <-> left <-> right <-> oldNext.
	rp.setPtrA(oldNext)
	rp.setPtrB(leafPno)
	lp.setPtrA(rightPno)
	lp.setPtrB(oldPrev)
	sep := keys[splitAt-1]
	t.pg.MarkDirtyRec(pg, sys, redo.KindBtreeOp,
		encOp(opSplitLeaf, u64b(rightPno), keyb(sep)))
	t.pg.MarkDirty(rpg)
	// The enclosing operation's cell, stamped after the split records so
	// replay lands it on the rebuilt half.
	if idx < splitAt {
		t.pg.MarkDirtyRec(pg, op, redo.KindBtreeOp, encOp(opPut, enc))
	} else {
		t.pg.MarkDirtyRec(rpg, op, redo.KindBtreeOp, encOp(opPut, enc))
	}
	t.pg.Release(rpg)
	t.pg.Release(pg)
	if oldNext != 0 {
		npg, err := t.pg.Acquire(oldNext)
		if err != nil {
			return err
		}
		pageRef{npg.Data()}.setPtrB(rightPno)
		t.pg.MarkDirtyRec(npg, sys, redo.KindRange, redo.EncodeRange(offPtrB, u64b(rightPno)))
		t.pg.Release(npg)
	}
	t.addStats(0, 0, 1, 0)
	err = t.insertSeparator(sys, aop, path, sep, leafPno, rightPno)
	// Append whatever was staged even on error: each record was staged
	// right after its mutation landed in cache, so the log stays
	// consistent with the (possibly partially split) in-cache tree —
	// and the enclosing op's own records, which beginOp commits even on
	// failure, may already target the new right page.
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
// leftPno and must now reach rightPno. Splits parents as needed. All
// records go into sys — the structure modification's system transaction
// — except the allocations, which aop carries (see allocOp).
func (t *Tree) insertSeparator(sys, aop *pager.Op, path []pathElem, sep []byte, leftPno, rightPno uint64) error {
	if len(path) == 0 {
		// Split the root: create a new internal root.
		newRoot, err := t.space.Alloc(aop, 1)
		if err != nil {
			return err
		}
		pg, err := t.pg.AcquireZero(newRoot)
		if err != nil {
			_ = t.freePage(aop, newRoot) // never joined the tree
			return err
		}
		p := initPage(pg.Data(), pageInternal)
		enc := encodeInternalCell(nil, sep, leftPno)
		if !p.insertRaw(0, enc) {
			t.pg.Release(pg)
			return fmt.Errorf("%w: root separator does not fit", ErrCorrupt)
		}
		p.setPtrA(rightPno)
		t.pg.MarkDirtyRec(pg, sys, redo.KindBtreeOp,
			encOp(opNewRoot, u64b(leftPno), u64b(rightPno), keyb(sep)))
		t.pg.Release(pg)
		t.root = newRoot
		t.height++
		// Replay must see the new root: the header record rides the same
		// system transaction.
		return t.writeHeaderOp(sys)
	}

	parent := path[len(path)-1]
	pg, err := t.pg.Acquire(parent.pno)
	if err != nil {
		return err
	}
	p := pageRef{pg.Data()}
	// The child pointer at parent.idx must be redirected to rightPno; the
	// new cell (sep, leftPno) is inserted at parent.idx.
	if parent.idx < p.ncells() {
		// Existing cell keeps its key but child becomes rightPno.
		c, err := p.decodeCell(parent.idx)
		if err != nil {
			t.pg.Release(pg)
			return err
		}
		k := make([]byte, len(c.key))
		copy(k, c.key)
		p.removeCell(parent.idx)
		encOld := encodeInternalCell(nil, k, rightPno)
		if !p.insertRaw(parent.idx, encOld) {
			// Removing then failing to reinsert would corrupt the page;
			// removeCell only moved slots, so re-adding must succeed
			// because the cell was just removed. Compaction guarantees it.
			t.pg.Release(pg)
			return fmt.Errorf("%w: reinsert of redirected cell failed", ErrCorrupt)
		}
		t.pg.MarkDirtyRec(pg, sys, redo.KindBtreeOp,
			encOp(opRedirect, keyb(k), u64b(rightPno)))
	} else {
		p.setPtrA(rightPno)
		t.pg.MarkDirtyRec(pg, sys, redo.KindRange, redo.EncodeRange(offPtrA, u64b(rightPno)))
	}
	encNew := encodeInternalCell(nil, sep, leftPno)
	if p.insertRaw(parent.idx, encNew) {
		t.pg.MarkDirtyRec(pg, sys, redo.KindBtreeOp, encOp(opPut, encNew))
		t.pg.Release(pg)
		return nil
	}
	// Parent full: split it.
	return t.splitInternalAndInsert(sys, aop, pg, parent.pno, parent.idx, sep, leftPno, path[:len(path)-1])
}

// splitInternalAndInsert splits the (pinned) full internal node while
// inserting cell (sep, leftPno) at index idx. Consumes the pin. Internal
// pages are mutated only by system transactions, so replay re-executes
// the identical middle-cell split against identical cells.
func (t *Tree) splitInternalAndInsert(sys, aop *pager.Op, pg *pager.Page, pno uint64, idx int, sep []byte, leftPno uint64, path []pathElem) error {
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
			t.pg.Release(pg)
			return err
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

	rightPno, err := t.space.Alloc(aop, 1)
	if err != nil {
		t.pg.Release(pg)
		return err
	}
	rpg, err := t.pg.AcquireZero(rightPno)
	if err != nil {
		t.pg.Release(pg)
		_ = t.freePage(aop, rightPno) // never joined the tree
		return err
	}
	rp := initPage(rpg.Data(), pageInternal)
	for i := m + 1; i < len(cells); i++ {
		enc := encodeInternalCell(nil, cells[i].key, cells[i].child)
		if !rp.insertRaw(i-m-1, enc) {
			t.pg.Release(rpg)
			t.pg.Release(pg)
			return fmt.Errorf("%w: internal split right overflow", ErrCorrupt)
		}
	}
	rp.setPtrA(rightMost)

	lp := initPage(pg.Data(), pageInternal)
	for i := 0; i < m; i++ {
		enc := encodeInternalCell(nil, cells[i].key, cells[i].child)
		if !lp.insertRaw(i, enc) {
			t.pg.Release(rpg)
			t.pg.Release(pg)
			return fmt.Errorf("%w: internal split left overflow", ErrCorrupt)
		}
	}
	lp.setPtrA(promoted.child)

	t.pg.MarkDirtyRec(pg, sys, redo.KindBtreeOp,
		encOp(opSplitInternal, u64b(rightPno), u64b(leftPno), keyb(sep)))
	t.pg.MarkDirty(rpg)
	t.pg.Release(rpg)
	t.pg.Release(pg)
	t.addStats(0, 0, 1, 0)
	return t.insertSeparator(sys, aop, path, promoted.key, pno, rightPno)
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
	t.gen++

	path, leafPno, err := t.descend(key)
	if err != nil {
		return err
	}
	t.addStats(1, int64(len(path)+1), 0, 0)

	pg, err := t.pg.Acquire(leafPno)
	if err != nil {
		return err
	}
	p := pageRef{pg.Data()}
	idx, found, err := p.search(key)
	if err != nil {
		t.pg.Release(pg)
		return err
	}
	if !found {
		t.pg.Release(pg)
		return ErrNotFound
	}
	c, err := p.decodeCell(idx)
	if err != nil {
		t.pg.Release(pg)
		return err
	}
	if op.UndoEnabled() {
		// Inverse re-inserts the old value; read it (overflow included)
		// before the chain is freed.
		old, err := t.cellValue(c)
		if err != nil {
			t.pg.Release(pg)
			return err
		}
		op.StageUndo(undo.KeyPut(t.hdrPno, key, old))
	}
	if c.overflow != 0 {
		if err := t.freeOverflow(op, c.overflow); err != nil {
			t.pg.Release(pg)
			return err
		}
	}
	p.removeCell(idx)
	t.pg.MarkDirtyRec(pg, op, redo.KindBtreeOp, encOp(opDel, key))
	underfull := p.usedBytes() < len(pg.Data())/4
	t.pg.Release(pg)
	t.nkeys--

	if underfull && len(path) > 0 {
		if op != nil {
			k := append([]byte(nil), key...)
			op.Defer(func(sys *pager.Op) error { return t.Rebalance(sys, k) })
		} else if err := t.maybeMerge(nil, path, leafPno); err != nil {
			return err
		}
	}
	return t.writeHeader()
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
	pg, err := t.pg.Acquire(leafPno)
	if err != nil {
		return err
	}
	underfull := pageRef{pg.Data()}.usedBytes() < len(pg.Data())/4
	t.pg.Release(pg)
	if !underfull {
		return nil
	}
	if err := t.maybeMerge(sys, path, leafPno); err != nil {
		return err
	}
	return t.writeHeader()
}

// maybeMerge attempts to merge the node at nodePno (whose parent path is
// given) with an adjacent sibling if their combined cells fit in one page.
// Lazy rebalancing: if no merge fits, the tree is left as is. Records go
// into sys (nil = unlogged).
func (t *Tree) maybeMerge(sys *pager.Op, path []pathElem, nodePno uint64) error {
	parent := path[len(path)-1]
	ppg, err := t.pg.Acquire(parent.pno)
	if err != nil {
		return err
	}
	pp := pageRef{ppg.Data()}
	nc := pp.ncells()

	// Identify left/right siblings of the child at parent.idx.
	childAt := func(i int) (uint64, error) {
		if i < nc {
			c, err := pp.decodeCell(i)
			if err != nil {
				return 0, err
			}
			return c.child, nil
		}
		return pp.ptrA(), nil
	}

	cur, err := childAt(parent.idx)
	if err != nil {
		t.pg.Release(ppg)
		return err
	}
	if cur != nodePno {
		// Path is stale (shouldn't happen under the tree lock); skip.
		t.pg.Release(ppg)
		return nil
	}

	// Try merging cur with its right sibling first, else with its left.
	tryPairs := [][2]int{}
	if parent.idx < nc {
		tryPairs = append(tryPairs, [2]int{parent.idx, parent.idx + 1})
	}
	if parent.idx > 0 {
		tryPairs = append(tryPairs, [2]int{parent.idx - 1, parent.idx})
	}

	for _, pair := range tryPairs {
		li, ri := pair[0], pair[1]
		leftPno, err := childAt(li)
		if err != nil {
			t.pg.Release(ppg)
			return err
		}
		rightPno, err := childAt(ri)
		if err != nil {
			t.pg.Release(ppg)
			return err
		}
		merged, err := t.tryMergePair(sys, pp, leftPno, rightPno, li)
		if err != nil {
			t.pg.Release(ppg)
			return err
		}
		if merged {
			t.pg.MarkDirtyRec(ppg, sys, redo.KindBtreeOp,
				encOp(opMerge, u64b(leftPno), u64b(rightPno)))
			underfull := pp.usedBytes() < len(ppg.Data())/4
			rootEmpty := parent.pno == t.root && pp.ncells() == 0
			var newRoot uint64
			if rootEmpty {
				newRoot = pp.ptrA()
			}
			t.pg.Release(ppg)
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
	}
	t.pg.Release(ppg)
	return nil
}

// tryMergePair merges right into left if all cells fit in one page.
// li is the parent cell index referring to left. On success the parent
// cell for left is removed and the reference to right is redirected to
// left; the right page is freed. Parent page pp must be pinned by caller,
// who emits the covering opMerge record; only the next-leaf back-pointer
// stitch is recorded here.
func (t *Tree) tryMergePair(sys *pager.Op, pp pageRef, leftPno, rightPno uint64, li int) (bool, error) {
	lpg, err := t.pg.Acquire(leftPno)
	if err != nil {
		return false, err
	}
	lp := pageRef{lpg.Data()}
	rpg, err := t.pg.Acquire(rightPno)
	if err != nil {
		t.pg.Release(lpg)
		return false, err
	}
	rp := pageRef{rpg.Data()}

	if lp.typ() != rp.typ() {
		t.pg.Release(rpg)
		t.pg.Release(lpg)
		return false, fmt.Errorf("%w: sibling type mismatch", ErrCorrupt)
	}

	// Size check: combined used bytes (+ separator cell for internals).
	need := lp.usedBytes() + rp.usedBytes()
	sepCellSize := 0
	var sepKey []byte
	if lp.typ() == pageInternal {
		c, err := pp.decodeCell(li)
		if err != nil {
			t.pg.Release(rpg)
			t.pg.Release(lpg)
			return false, err
		}
		sepKey = append([]byte(nil), c.key...)
		sepCellSize = encodedInternalCellSize(len(sepKey)) + 2
		need += sepCellSize
	}
	if need > len(lpg.Data())-hdrSize {
		t.pg.Release(rpg)
		t.pg.Release(lpg)
		return false, nil
	}

	// The size check above guarantees the absorb loop fits; a failure here
	// means the accounting is broken, so surface corruption.
	absorbFail := func() (bool, error) {
		t.pg.Release(rpg)
		t.pg.Release(lpg)
		return false, fmt.Errorf("%w: merge overflow despite size check", ErrCorrupt)
	}
	if lp.typ() == pageInternal {
		// Absorb left.ptrA under the separator key, then right's cells.
		enc := encodeInternalCell(nil, sepKey, lp.ptrA())
		if !lp.insertRaw(lp.ncells(), enc) {
			return absorbFail()
		}
		for i := 0; i < rp.ncells(); i++ {
			off := rp.slot(i)
			sz := rp.cellLenAt(off)
			raw := make([]byte, sz)
			copy(raw, rp.data[off:off+sz])
			if !lp.insertRaw(lp.ncells(), raw) {
				return absorbFail()
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
				return absorbFail()
			}
		}
		// Fix leaf chain: left <-> right.next.
		next := rp.ptrA()
		lp.setPtrA(next)
		if next != 0 {
			npg, err := t.pg.Acquire(next)
			if err != nil {
				t.pg.Release(rpg)
				t.pg.Release(lpg)
				return false, err
			}
			pageRef{npg.Data()}.setPtrB(leftPno)
			t.pg.MarkDirtyRec(npg, sys, redo.KindRange, redo.EncodeRange(offPtrB, u64b(leftPno)))
			t.pg.Release(npg)
		}
	}
	t.pg.MarkDirty(lpg)
	t.pg.Release(rpg)
	t.pg.Release(lpg)

	// Parent: remove the cell for left; redirect right's reference to left.
	ri := li + 1
	if ri < pp.ncells() {
		c, err := pp.decodeCell(ri)
		if err != nil {
			return false, err
		}
		k := append([]byte(nil), c.key...)
		pp.removeCell(ri)
		enc := encodeInternalCell(nil, k, leftPno)
		if !pp.insertRaw(ri, enc) {
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

// allocOp picks the operation that carries a split's page allocations.
// Normally that is the split's own system transaction: the split is
// redone whatever becomes of op, and its new pages are linked into a tree
// others can see. But while the operation that created this tree is still
// open, the tree is reachable only through that operation's uncommitted
// records: if they are dropped at a crash, the replayed split has built
// pages nothing points at, and an allocation logged with it would leak
// them. Logged with the creating operation, it shares that fate.
func (t *Tree) allocOp(op, sys *pager.Op) *pager.Op {
	if t.creator != 0 && op.ID() == t.creator {
		return op
	}
	return sys
}

// Sync flushes the tree's header; page data is flushed by the volume.
func (t *Tree) Sync() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.writeHeader()
}

// RecountKeys walks the leaf chain and resets the header key count.
// Physiological logging does not journal nkeys — it is a cross-
// transaction counter no single transaction's redo can own — so recovery
// recounts it after replay (the volume calls this on every unclean open,
// where it rides the same walk that rebuilds the allocator).
func (t *Tree) RecountKeys() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	pno := t.root
	for level := 0; level < t.height-1; level++ {
		pg, err := t.pg.Acquire(pno)
		if err != nil {
			return err
		}
		p := pageRef{pg.Data()}
		if p.typ() != pageInternal || p.ncells() == 0 {
			next := p.ptrA()
			t.pg.Release(pg)
			if p.typ() != pageInternal {
				return fmt.Errorf("%w: recount hit type %d at level %d", ErrCorrupt, p.typ(), level)
			}
			pno = next
			continue
		}
		c, err := p.decodeCell(0)
		if err != nil {
			t.pg.Release(pg)
			return err
		}
		t.pg.Release(pg)
		pno = c.child
	}
	var n uint64
	for pno != 0 {
		pg, err := t.pg.Acquire(pno)
		if err != nil {
			return err
		}
		p := pageRef{pg.Data()}
		if p.typ() != pageLeaf {
			t.pg.Release(pg)
			return fmt.Errorf("%w: recount hit type %d in leaf chain", ErrCorrupt, p.typ())
		}
		n += uint64(p.ncells())
		pno = p.ptrA()
		t.pg.Release(pg)
	}
	if n == t.nkeys {
		return nil
	}
	t.nkeys = n
	return t.writeHeader()
}

// Drop frees every page owned by the tree — nodes, overflow chains, and
// the header — logging the frees into op. The tree must not be used
// afterwards.
func (t *Tree) Drop(op *pager.Op) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++

	var freeWalk func(pno uint64, level int) error
	freeWalk = func(pno uint64, level int) error {
		pg, err := t.pg.Acquire(pno)
		if err != nil {
			return err
		}
		p := pageRef{pg.Data()}
		var children []uint64
		var overflows []uint64
		switch p.typ() {
		case pageInternal:
			for i := 0; i < p.ncells(); i++ {
				c, err := p.decodeCell(i)
				if err != nil {
					t.pg.Release(pg)
					return err
				}
				children = append(children, c.child)
			}
			children = append(children, p.ptrA())
		case pageLeaf:
			for i := 0; i < p.ncells(); i++ {
				c, err := p.decodeCell(i)
				if err != nil {
					t.pg.Release(pg)
					return err
				}
				if c.overflow != 0 {
					overflows = append(overflows, c.overflow)
				}
			}
		default:
			t.pg.Release(pg)
			return fmt.Errorf("%w: drop walk hit page type %d", ErrCorrupt, p.typ())
		}
		t.pg.Release(pg)
		for _, c := range children {
			if err := freeWalk(c, level+1); err != nil {
				return err
			}
		}
		for _, o := range overflows {
			if err := t.freeOverflow(op, o); err != nil {
				return err
			}
		}
		return t.freePage(op, pno)
	}
	if err := freeWalk(t.root, 0); err != nil {
		return err
	}
	if err := t.freePage(op, t.hdrPno); err != nil {
		return err
	}
	t.root, t.height, t.nkeys = 0, 0, 0
	return nil
}
