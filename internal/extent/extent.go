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
// A tree is named by its root page, which never moves: a full root
// pushes its cells down into a fresh child and becomes that child's
// parent, and an internal root left with one child pulls the child's
// cells back up. The tree's height is stored nowhere; Open finds it from
// the page types down the leftmost spine.
//
// On-page layouts (little-endian):
//
//	leaf (type 6):  common 24-byte header (ptrA=next leaf, ptrB=prev);
//	                cells: 16 bytes each = alloc uint64, allocBlocks
//	                uint32, len uint32
//	internal (type 7): common header; cells: 16 bytes each =
//	                child uint64, subtree byte total uint64
//	every node:     its last 8 bytes name the owner (the OID of the
//	                object the tree backs; 0 outside a volume), written
//	                once, when the node is made. No cell reaches them:
//	                (bs − 24) mod 16 = 8 for any block size that is a
//	                multiple of 16.
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
	"repro/internal/undo"
)

// Page types (distinct from btree's so fsck can tell them apart).
const (
	pageLeaf     = 6
	pageInternal = 7
)

// Common header offsets (shared shape with the btree package).
const (
	offType   = 0
	offNCells = 2
	offPtrA   = 8
	offPtrB   = 16
	hdrSize   = 24
)

const (
	leafCellSize     = 16
	internalCellSize = 16
	ownerLen         = 8 // the owner back-pointer closing every node
	maxHeight        = 32
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
	// root names the tree: it is fixed for the tree's life.
	root  uint64
	bs    int
	bsU64 uint64

	// creator is the ID of the operation that created the tree (0 when
	// opened, or created unlogged): until it commits, the tree's edits need
	// no inverse of their own, and its splits are its own (see smoOp).
	creator uint64

	mu sync.RWMutex
	// height is derived at Open and kept by the root's pushes and pulls;
	// no page stores it.
	height int
	// size is the root's sum: read from the root page at Open, then kept
	// by the mutators. No page stores it apart from the tree's own sums.
	size uint64
	// curOp is the redo capture of the mutating call in progress, set at
	// each public entry point under mu (which serializes all mutators).
	// Mutators stage typed extent records (redo.KindExtentOp) into it, one
	// atomic section per call; splits and merges ride system transactions
	// derived from it (smoOp). Nil = unlogged (formatting, or a tree used
	// outside a volume).
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

// begin opens a mutating call by op and returns what closes it: it takes
// the tree lock, makes op the current capture inside one atomic section,
// and makes op's commit wait for the records of the open operation that
// mutated the tree before it (pager.After, keyed by the root block, so
// the dependency outlives every handle on the tree). Use as defer
// t.begin(op)().
func (t *Tree) begin(op *pager.Op) func() {
	t.mu.Lock()
	t.curOp = op
	t.pg.After(t.root, op)
	op.BeginAtomic()
	return func() {
		op.EndAtomic()
		t.curOp = nil
		t.mu.Unlock()
	}
}

// Create allocates a new empty extent tree owned by no object.
func Create(pg *pager.Pager, ba *buddy.Allocator, cfg Config) (*Tree, error) {
	return CreateOp(pg, ba, cfg, nil, 0)
}

// CreateOp is Create capturing the fresh tree's root page into op, so an
// object created inside a transaction recovers with it; owner is the
// back-pointer every node of the tree will carry. The root is fresh
// (WithZero), so replay rebuilds it from its record alone and no garbage
// home content is ever logged as a base image. Its inverse destroys the
// tree: staged once the tree stands, in the same atomic section as the
// allocation, while a failure before that point gives the page straight
// back.
func CreateOp(pg *pager.Pager, ba *buddy.Allocator, cfg Config, op *pager.Op, owner uint64) (*Tree, error) {
	cfg.Fill(pg.BlockSize())
	op.BeginAtomic()
	defer op.EndAtomic()
	space := pager.NewSpace(pg, ba)
	root, err := space.Alloc(op, 1)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		pg: pg, space: space, dev: pg.Device(), cfg: cfg, root: root,
		bs: pg.BlockSize(), bsU64: uint64(pg.BlockSize()),
		height: 1, creator: op.ID(),
	}
	err = pg.WithZero(root, func(rp *pager.Page) error {
		initNode(rp.Data(), pageLeaf, owner)
		t.rec(rp, op, encXop(xopInit, []byte{pageLeaf}, xu64(owner)))
		return nil
	})
	if err != nil {
		_ = space.Free(op, root, 1)
		return nil, err
	}
	op.StageUndo(undo.ExtentDrop(root))
	// The creator is the tree's first builder: an operation that mutates
	// the tree before the creator commits depends on it (pager.After).
	pg.After(root, op)
	return t, nil
}

// Open loads the extent tree rooted at root. Its size is the sum the root
// holds, and its height the number of pages down the leftmost spine to a
// leaf: a single-leaf tree opens with one page read.
func Open(pg *pager.Pager, ba *buddy.Allocator, root uint64, cfg Config) (*Tree, error) {
	cfg.Fill(pg.BlockSize())
	t := &Tree{
		pg: pg, space: pager.NewSpace(pg, ba), dev: pg.Device(), cfg: cfg, root: root,
		bs: pg.BlockSize(), bsU64: uint64(pg.BlockSize()),
	}
	for pno := root; pno != 0; t.height++ {
		if t.height == maxHeight {
			return nil, fmt.Errorf("%w: tree at %d deeper than %d", ErrCorrupt, root, maxHeight)
		}
		var child uint64
		err := pg.With(pno, func(p *pager.Page) error {
			n := nodeRef{p.Data()}
			if pno == root {
				t.size = n.sum()
			}
			switch n.typ() {
			case pageLeaf:
			case pageInternal:
				if n.ncells() == 0 {
					return fmt.Errorf("%w: empty internal node %d", ErrCorrupt, pno)
				}
				child = n.childCell(0).child
			default:
				return fmt.Errorf("%w: page %d is not an extent node", ErrCorrupt, pno)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		pno = child
	}
	return t, nil
}

// Owner reads the back-pointer of the extent tree rooted at root: the
// owner it was created with.
func Owner(pg *pager.Pager, root uint64) (uint64, error) {
	var owner uint64
	err := pg.With(root, func(p *pager.Page) error {
		n := nodeRef{p.Data()}
		if t := n.typ(); t != pageLeaf && t != pageInternal {
			return fmt.Errorf("%w: page %d is not an extent node", ErrCorrupt, root)
		}
		owner = n.owner()
		return nil
	})
	return owner, err
}

// RootPage returns the page number naming this tree.
func (t *Tree) RootPage() uint64 { return t.root }

// Size returns the object's logical byte size.
func (t *Tree) Size() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// ExtentCount returns the number of extents (including holes), counted
// along the leaf chain. It is a report, not a check: a page that cannot
// be read makes it 0. Its callers are the benchmark's extents_per_object,
// which reads the same leaves back right after and fails there, and the
// exhibit table; Check counts the extents and returns the error.
func (t *Tree) ExtentCount() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leafPno, err := t.firstLeaf()
	var n uint64
	for err == nil && leafPno != 0 {
		err = t.pg.With(leafPno, func(pg *pager.Page) error {
			node := nodeRef{pg.Data()}
			n += uint64(node.ncells())
			leafPno = node.next()
			return nil
		})
	}
	if err != nil {
		return 0
	}
	return n
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

func (n nodeRef) owner() uint64 { return binary.LittleEndian.Uint64(n.data[len(n.data)-ownerLen:]) }

// initNode zeroes a fresh page and stamps its type and owner.
func initNode(data []byte, typ byte, owner uint64) nodeRef {
	clear(data)
	data[offType] = typ
	binary.LittleEndian.PutUint64(data[len(data)-ownerLen:], owner)
	return nodeRef{data}
}

func (t *Tree) leafCap() int     { return (t.bs - hdrSize - ownerLen) / leafCellSize }
func (t *Tree) internalCap() int { return (t.bs - hdrSize - ownerLen) / internalCellSize }

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

// sum returns the total bytes under a node of either type.
func (n nodeRef) sum() uint64 {
	if n.typ() == pageInternal {
		return n.childSum()
	}
	return n.leafSum()
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
		var idx int
		var child uint64
		err := t.pg.With(pno, func(pg *pager.Page) error {
			n := nodeRef{pg.Data()}
			if n.typ() != pageInternal {
				return fmt.Errorf("%w: expected internal page at %d", ErrCorrupt, pno)
			}
			cnt := n.ncells()
			idx = cnt - 1
			for i := 0; i < cnt; i++ {
				c := n.childCell(i)
				if rem < c.bytes || (i == cnt-1) {
					idx = i
					break
				}
				rem -= c.bytes
			}
			child = n.childCell(idx).child
			return nil
		})
		if err != nil {
			return nil, 0, 0, err
		}
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
		err := t.pg.With(pe.pno, func(pg *pager.Page) error {
			n := nodeRef{pg.Data()}
			c := n.childCell(pe.idx)
			c.bytes = uint64(int64(c.bytes) + delta)
			n.setChildCell(pe.idx, c)
			t.rec(pg, t.curOp, encXop(xopBump, xu16(pe.idx), xu64(uint64(delta))))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
