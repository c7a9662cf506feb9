// Package extent implements byte-granularity extent maps for OSD objects.
//
// The paper stores each object as a Berkeley DB btree "whose keys are file
// offsets where extents begin", and claims that btrees give insert and
// truncate-anywhere "with little implementation effort". Taken literally,
// offset-keyed extent maps make a middle-of-object insert O(n): every
// subsequent key must be renumbered. This package therefore implements the
// extent map as a counted (order-statistics) B+tree: interior nodes store
// subtree byte totals instead of keys, so lookup descends by offset
// arithmetic and insert/truncate shift nothing — an O(log n) structural
// update plus a bounded tail copy. The paper's literal offset-keyed design
// is also provided (see keyed.go) as the ablation for experiment E7.
//
// Extents reference buddy-allocator block runs on the device. Invariant:
// each allocation is referenced by exactly one extent (splits copy the
// right-hand tail into a fresh allocation), so freeing an extent frees its
// whole allocation. An extent with Alloc == 0 is a hole: Len bytes of
// zeros with no storage, created by sparse writes and truncate-grow.
//
// On-page layouts (little-endian):
//
//	header page (type 5): magic, root, height, size, extent count
//	leaf (type 6):  common 24-byte header (ptrA=next leaf, ptrB=prev);
//	                cells: 16 bytes each = alloc uint64, allocBlocks
//	                uint32, len uint32
//	internal (type 7): common header; cells: 16 bytes each =
//	                child uint64, subtree byte total uint64
package extent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/pager"
	"repro/internal/redo"
)

// Page types (distinct from btree's so fsck can tell them apart).
const (
	pageLeaf     = 6
	pageInternal = 7
	pageHeader   = 5
)

// Common header offsets (shared shape with the btree package).
const (
	offType   = 0
	offNCells = 2
	offPtrA   = 8
	offPtrB   = 16
	hdrSize   = 24
)

// Header page offsets.
const (
	hOffMagic   = 4
	hOffRoot    = 8
	hOffHeight  = 16
	hOffSize    = 24
	hOffExtents = 32
	treeMagic   = 0x6578464D // "exFM"
)

const (
	leafCellSize     = 16
	internalCellSize = 16
)

// Errors.
var (
	ErrCorrupt    = errors.New("extent: corrupt page")
	ErrOutOfRange = errors.New("extent: offset beyond object size")
)

// Extent describes one run of object bytes.
type Extent struct {
	Alloc       uint64 // first block of the buddy allocation; 0 = hole
	AllocBlocks uint32 // blocks reserved (buddy round-up); 0 for holes
	Len         uint32 // live bytes (≤ AllocBlocks * blockSize)
}

// IsHole reports whether the extent is unbacked zeros.
func (e Extent) IsHole() bool { return e.Alloc == 0 }

// Config tunes the tree.
type Config struct {
	// MaxExtentBytes bounds a single extent, and therefore the worst-case
	// tail copy performed when an extent is split mid-byte. Default 256 KiB.
	MaxExtentBytes uint32
}

// Fill applies defaults for the given block size; exported so the volume
// can compute (and persist) the effective configuration.
func (c *Config) Fill(bs int) {
	if c.MaxExtentBytes == 0 {
		c.MaxExtentBytes = 256 * 1024
	}
	if c.MaxExtentBytes < uint32(bs) {
		c.MaxExtentBytes = uint32(bs)
	}
}

// Stats counts structural operations.
type Stats struct {
	Splits        int64 // node splits
	Merges        int64 // node merges
	ExtentSplits  int64 // extent boundary splits
	TailCopyBytes int64 // bytes copied by extent splits
	Descents      int64
	LevelsTouched int64
}

// Tree is a counted B+tree extent map for one object.
type Tree struct {
	pg *pager.Pager
	// space is the tree's only door to the allocator: every allocation
	// and free names the operation whose log records carry it.
	space pager.Space
	dev   blockdev.Device
	cfg   Config
	hdr   uint64
	bs    int
	bsU64 uint64

	// creator is the ID of the operation that created the tree (0 when
	// opened, or created unlogged); see allocOp.
	creator uint64

	mu      sync.RWMutex
	root    uint64
	height  int
	size    uint64
	extents uint64
	// curOp is the redo capture of the mutating call in progress, set at
	// each public entry point under mu (which serializes all mutators).
	// Mutators stage typed extent records (redo.KindExtentOp) and header
	// range records into it; splits and merges ride system transactions
	// derived from it (curOp.NewSys). Nil = unlogged — non-transactional
	// volume, or the page-image logging baseline where the pager's
	// broadcast capture does the work instead.
	curOp *pager.Op
	// rebalOp/rebalOff dedup deferred rebalances: a multi-cell delete
	// registers ONE post-commit RebalanceAt per operation, retargeted
	// (under mu) to the latest removal offset, instead of one closure
	// per removed cell. The offset cell is atomic because the deferred
	// closure reads it after the bracket, outside mu.
	rebalOp  *pager.Op
	rebalOff *atomic.Uint64

	statMu sync.Mutex
	stats  Stats
}

// rec marks pg dirty and stages a typed extent redo record into op.
// With a nil op this is a plain MarkDirty (unlogged / image baseline).
func (t *Tree) rec(pg *pager.Page, op *pager.Op, payload []byte) {
	t.pg.MarkDirtyRec(pg, op, redo.KindExtentOp, payload)
}

// recRange marks pg dirty and stages an absolute byte-range record.
func (t *Tree) recRange(pg *pager.Page, op *pager.Op, off int, b []byte) {
	t.pg.MarkDirtyRec(pg, op, redo.KindRange, redo.EncodeRange(off, b))
}

// Create allocates a new empty extent tree.
func Create(pg *pager.Pager, ba *buddy.Allocator, cfg Config) (*Tree, error) {
	return CreateOp(pg, ba, cfg, nil)
}

// CreateOp is Create capturing the fresh tree's pages into op, so an
// object created inside a transaction recovers with it. Both pages are
// fresh (AcquireZero), so replay rebuilds them from their records alone
// and no garbage home content is ever logged as a base image.
func CreateOp(pg *pager.Pager, ba *buddy.Allocator, cfg Config, op *pager.Op) (*Tree, error) {
	cfg.Fill(pg.BlockSize())
	space := pager.NewSpace(ba)
	hdr, err := space.Alloc(op, 1)
	if err != nil {
		return nil, err
	}
	rootPno, err := space.Alloc(op, 1)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		pg: pg, space: space, dev: pg.Device(), cfg: cfg, hdr: hdr,
		bs: pg.BlockSize(), bsU64: uint64(pg.BlockSize()),
		root: rootPno, height: 1, creator: op.ID(),
	}
	rp, err := pg.AcquireZero(rootPno)
	if err != nil {
		return nil, err
	}
	rp.Data()[offType] = pageLeaf
	t.rec(rp, op, encXop(xopInit, []byte{pageLeaf}))
	pg.Release(rp)
	hp, err := pg.AcquireZero(hdr)
	if err != nil {
		return nil, err
	}
	hb := t.headerBytes()
	copy(hp.Data()[:len(hb)], hb)
	t.recRange(hp, op, 0, hb)
	pg.Release(hp)
	return t, nil
}

// Open loads an extent tree from its header page.
func Open(pg *pager.Pager, ba *buddy.Allocator, headerPno uint64, cfg Config) (*Tree, error) {
	cfg.Fill(pg.BlockSize())
	hp, err := pg.Acquire(headerPno)
	if err != nil {
		return nil, err
	}
	defer pg.Release(hp)
	d := hp.Data()
	if d[offType] != pageHeader || binary.LittleEndian.Uint32(d[hOffMagic:]) != treeMagic {
		return nil, fmt.Errorf("%w: page %d is not an extent tree header", ErrCorrupt, headerPno)
	}
	return &Tree{
		pg: pg, space: pager.NewSpace(ba), dev: pg.Device(), cfg: cfg, hdr: headerPno,
		bs: pg.BlockSize(), bsU64: uint64(pg.BlockSize()),
		root:    binary.LittleEndian.Uint64(d[hOffRoot:]),
		height:  int(binary.LittleEndian.Uint64(d[hOffHeight:])),
		size:    binary.LittleEndian.Uint64(d[hOffSize:]),
		extents: binary.LittleEndian.Uint64(d[hOffExtents:]),
	}, nil
}

// HeaderPage returns the page number identifying this tree.
func (t *Tree) HeaderPage() uint64 { return t.hdr }

// Size returns the object's logical byte size.
func (t *Tree) Size() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// ExtentCount returns the number of extents (including holes).
func (t *Tree) ExtentCount() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.extents
}

// Stats returns a snapshot of operation counters.
func (t *Tree) Stats() Stats {
	t.statMu.Lock()
	defer t.statMu.Unlock()
	return t.stats
}

func (t *Tree) addStat(f func(*Stats)) {
	t.statMu.Lock()
	f(&t.stats)
	t.statMu.Unlock()
}

// headerBytes renders the header fields for a range record.
func (t *Tree) headerBytes() []byte {
	b := make([]byte, hOffExtents+8)
	b[offType] = pageHeader
	binary.LittleEndian.PutUint32(b[hOffMagic:], treeMagic)
	binary.LittleEndian.PutUint64(b[hOffRoot:], t.root)
	binary.LittleEndian.PutUint64(b[hOffHeight:], uint64(t.height))
	binary.LittleEndian.PutUint64(b[hOffSize:], t.size)
	binary.LittleEndian.PutUint64(b[hOffExtents:], t.extents)
	return b
}

// writeHeader persists the header fields as a byte-range record in the
// current operation's redo set.
func (t *Tree) writeHeader() error {
	hp, err := t.pg.Acquire(t.hdr)
	if err != nil {
		return err
	}
	defer t.pg.Release(hp)
	hb := t.headerBytes()
	copy(hp.Data()[:len(hb)], hb)
	t.recRange(hp, t.curOp, 0, hb)
	return nil
}

// writeRootSys persists the root and height fields as part of a
// structure modification's system transaction: a height change must be
// redone with the split or merge that caused it, whether or not the
// enclosing operation commits — otherwise replay would descend the old
// root over a re-rooted tree. Size and extent count stay op-owned (the
// modification is sum-preserving, so they did not change).
func (t *Tree) writeRootSys(sys *pager.Op) error {
	hp, err := t.pg.Acquire(t.hdr)
	if err != nil {
		return err
	}
	defer t.pg.Release(hp)
	d := hp.Data()
	binary.LittleEndian.PutUint64(d[hOffRoot:], t.root)
	binary.LittleEndian.PutUint64(d[hOffHeight:], uint64(t.height))
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:], t.root)
	binary.LittleEndian.PutUint64(b[8:], uint64(t.height))
	t.recRange(hp, sys, hOffRoot, b[:])
	return nil
}

// --- page cell accessors ---

type nodeRef struct{ data []byte }

func (n nodeRef) typ() byte       { return n.data[offType] }
func (n nodeRef) ncells() int     { return int(binary.LittleEndian.Uint16(n.data[offNCells:])) }
func (n nodeRef) setNCells(v int) { binary.LittleEndian.PutUint16(n.data[offNCells:], uint16(v)) }
func (n nodeRef) next() uint64    { return binary.LittleEndian.Uint64(n.data[offPtrA:]) }
func (n nodeRef) setNext(v uint64) {
	binary.LittleEndian.PutUint64(n.data[offPtrA:], v)
}
func (n nodeRef) prev() uint64 { return binary.LittleEndian.Uint64(n.data[offPtrB:]) }
func (n nodeRef) setPrev(v uint64) {
	binary.LittleEndian.PutUint64(n.data[offPtrB:], v)
}

func (t *Tree) leafCap() int     { return (t.bs - hdrSize) / leafCellSize }
func (t *Tree) internalCap() int { return (t.bs - hdrSize) / internalCellSize }

func (n nodeRef) leafCell(i int) Extent {
	b := n.data[hdrSize+i*leafCellSize:]
	return Extent{
		Alloc:       binary.LittleEndian.Uint64(b),
		AllocBlocks: binary.LittleEndian.Uint32(b[8:]),
		Len:         binary.LittleEndian.Uint32(b[12:]),
	}
}

func (n nodeRef) setLeafCell(i int, e Extent) {
	b := n.data[hdrSize+i*leafCellSize:]
	binary.LittleEndian.PutUint64(b, e.Alloc)
	binary.LittleEndian.PutUint32(b[8:], e.AllocBlocks)
	binary.LittleEndian.PutUint32(b[12:], e.Len)
}

// insertLeafCell shifts cells [i, n) right and stores e at i.
// Caller must ensure capacity.
func (n nodeRef) insertLeafCell(i int, e Extent) {
	cnt := n.ncells()
	copy(n.data[hdrSize+(i+1)*leafCellSize:hdrSize+(cnt+1)*leafCellSize],
		n.data[hdrSize+i*leafCellSize:hdrSize+cnt*leafCellSize])
	n.setLeafCell(i, e)
	n.setNCells(cnt + 1)
}

func (n nodeRef) removeLeafCell(i int) {
	cnt := n.ncells()
	copy(n.data[hdrSize+i*leafCellSize:hdrSize+(cnt-1)*leafCellSize],
		n.data[hdrSize+(i+1)*leafCellSize:hdrSize+cnt*leafCellSize])
	n.setNCells(cnt - 1)
}

type childEntry struct {
	child uint64
	bytes uint64
}

func (n nodeRef) childCell(i int) childEntry {
	b := n.data[hdrSize+i*internalCellSize:]
	return childEntry{
		child: binary.LittleEndian.Uint64(b),
		bytes: binary.LittleEndian.Uint64(b[8:]),
	}
}

func (n nodeRef) setChildCell(i int, e childEntry) {
	b := n.data[hdrSize+i*internalCellSize:]
	binary.LittleEndian.PutUint64(b, e.child)
	binary.LittleEndian.PutUint64(b[8:], e.bytes)
}

func (n nodeRef) insertChildCell(i int, e childEntry) {
	cnt := n.ncells()
	copy(n.data[hdrSize+(i+1)*internalCellSize:hdrSize+(cnt+1)*internalCellSize],
		n.data[hdrSize+i*internalCellSize:hdrSize+cnt*internalCellSize])
	n.setChildCell(i, e)
	n.setNCells(cnt + 1)
}

func (n nodeRef) removeChildCell(i int) {
	cnt := n.ncells()
	copy(n.data[hdrSize+i*internalCellSize:hdrSize+(cnt-1)*internalCellSize],
		n.data[hdrSize+(i+1)*internalCellSize:hdrSize+cnt*internalCellSize])
	n.setNCells(cnt - 1)
}

// leafSum returns the total bytes in a leaf.
func (n nodeRef) leafSum() uint64 {
	var s uint64
	for i := 0; i < n.ncells(); i++ {
		s += uint64(n.leafCell(i).Len)
	}
	return s
}

// childSum returns the total bytes under an internal node.
func (n nodeRef) childSum() uint64 {
	var s uint64
	for i := 0; i < n.ncells(); i++ {
		s += n.childCell(i).bytes
	}
	return s
}

// --- descent ---

// pathElem records one internal-node step: which page, which child index.
type pathElem struct {
	pno uint64
	idx int
}

// descend walks to the leaf containing byte offset off (0 ≤ off ≤ size;
// off == size descends to the rightmost leaf). Returns the internal path,
// the leaf page number, and the byte offset remaining within the leaf.
func (t *Tree) descend(off uint64) ([]pathElem, uint64, uint64, error) {
	pno := t.root
	rem := off
	var path []pathElem
	for level := 0; level < t.height-1; level++ {
		pg, err := t.pg.Acquire(pno)
		if err != nil {
			return nil, 0, 0, err
		}
		n := nodeRef{pg.Data()}
		if n.typ() != pageInternal {
			t.pg.Release(pg)
			return nil, 0, 0, fmt.Errorf("%w: expected internal page at %d", ErrCorrupt, pno)
		}
		cnt := n.ncells()
		idx := cnt - 1
		for i := 0; i < cnt; i++ {
			c := n.childCell(i)
			if rem < c.bytes || (i == cnt-1) {
				idx = i
				break
			}
			rem -= c.bytes
		}
		child := n.childCell(idx).child
		t.pg.Release(pg)
		path = append(path, pathElem{pno, idx})
		pno = child
	}
	t.addStat(func(s *Stats) { s.Descents++; s.LevelsTouched += int64(t.height) })
	return path, pno, rem, nil
}

// findInLeaf locates the cell index containing byte offset rem within the
// leaf, returning the index and the offset within that extent. When rem
// lands exactly on a boundary the index of the following extent is
// returned with offset 0; rem == leafSum returns (ncells, 0).
func (n nodeRef) findInLeaf(rem uint64) (int, uint64) {
	cnt := n.ncells()
	for i := 0; i < cnt; i++ {
		l := uint64(n.leafCell(i).Len)
		if rem < l {
			return i, rem
		}
		rem -= l
	}
	return cnt, rem
}

// bumpCounts adds delta to the child-entry byte totals along path,
// logging one delta record per touched internal node. Deltas (not
// absolute values) compose with the sum-preserving system splits that
// may interleave in the log.
func (t *Tree) bumpCounts(path []pathElem, delta int64) error {
	if delta == 0 {
		return nil
	}
	for _, pe := range path {
		pg, err := t.pg.Acquire(pe.pno)
		if err != nil {
			return err
		}
		n := nodeRef{pg.Data()}
		c := n.childCell(pe.idx)
		c.bytes = uint64(int64(c.bytes) + delta)
		n.setChildCell(pe.idx, c)
		t.rec(pg, t.curOp, encXop(xopBump, xu16(pe.idx), xu64(uint64(delta))))
		t.pg.Release(pg)
	}
	return nil
}

// IsHeaderPage reports whether page bytes are an extent tree's header —
// how crash recovery finds, among the pages replay rebuilt, the trees
// whose counters the log tail could have moved.
func IsHeaderPage(d []byte) bool {
	return len(d) >= hOffRoot && d[offType] == pageHeader && binary.LittleEndian.Uint32(d[hOffMagic:]) == treeMagic
}
