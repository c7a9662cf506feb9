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
// The root node does not have a page of its own: it lives in the tree's
// anchor — the object's row in the object table — as a header byte and up
// to R cells, the way ext4 keeps the root of an inode's extent tree in the
// inode. A tree of R extents or fewer has no pages at all. A root that
// needs one more cell pushes its cells down into a fresh child page and
// becomes that child's parent, and an internal root left with one child
// that fits pulls the child's cells back up. The tree holds its root in
// memory and hands it to the anchor at the end of every mutating call;
// a tree with no anchor keeps its root only in memory.
//
// On-page layouts (little-endian):
//
//	leaf (type 6):  common 24-byte header (ptrA=next leaf, ptrB=prev);
//	                cells: 16 bytes each = alloc uint64, allocBlocks
//	                uint32, len uint32
//	internal (type 7): common header; cells: 16 bytes each =
//	                child uint64, subtree byte total uint64
//	every page:     its last 8 bytes name the owner (the OID of the
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

// Node types (distinct from btree's page types so fsck can tell them
// apart).
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
	ownerLen         = 8 // the owner back-pointer closing every page
)

// R is the number of cells the root node holds.
const R = 4

// rootNo stands for the root node where a page number would name a node:
// in descent paths and as a leaf "page". No block has this number.
const rootNo = ^uint64(0)

// Root is a tree's root node as its anchor keeps it: a header byte, then R
// cells of 16 bytes, those past the count zero. The header byte holds the
// tree's height less one in its high five bits and the root's cell count
// in its low three; a root of height 1 is a leaf. The zero Root is an empty
// leaf: a new tree.
type Root [1 + R*leafCellSize]byte

func (r Root) height() int { return int(r[0]>>3) + 1 }
func (r Root) count() int  { return int(r[0] & 7) }

// Len is the length of the root's encoding without its unused cells.
func (r Root) Len() int { return 1 + min(r.count(), R)*leafCellSize }

// Size is the byte total the root's cells hold: the object's size.
func (r Root) Size() uint64 {
	var s uint64
	for i := 0; i < min(r.count(), R); i++ {
		c := r[1+i*leafCellSize:]
		if r.height() == 1 {
			s += uint64(binary.LittleEndian.Uint32(c[12:]))
		} else {
			s += binary.LittleEndian.Uint64(c[8:])
		}
	}
	return s
}

// An Anchor keeps a tree's root node: osd's writes it into the object's
// row in the object table.
type Anchor interface {
	// Keep takes the root, in the operation at hand, at the end of every
	// mutating call (edit true) and after a deferred merge that changed
	// the root (edit false).
	Keep(op *pager.Op, root Root, edit bool) error
	// Rebalance runs a deferred rebalance (RebalanceAt) on the tree open on
	// the anchor's owner now. The tree that deferred it may have been
	// closed since, and its owner reopened from the anchor into a new
	// tree; only that tree's root is current.
	Rebalance(sys *pager.Op, off uint64) error
}

// Key names the tree owned by owner to pager.After and pager.Holds: the
// object, in a namespace no block number reaches.
func Key(owner uint64) uint64 { return 1<<63 | owner }

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
	// owner is the OID every page of the tree names (0 outside a volume),
	// and anchor keeps the root (nil: only rootBuf does).
	owner  uint64
	anchor Anchor
	bs     int
	bsU64  uint64

	// creator is the ID of the operation that created the tree (0 when
	// opened, or created unlogged): until it commits, the tree's edits need
	// no inverse of their own, and its splits are its own (see smoOp).
	creator uint64

	mu sync.RWMutex
	// rootBuf is the root node, laid out like a page of R cells so the
	// page accessors serve it; rootDirty says it changed since the anchor
	// last took it (RebalanceAt hands it over only then).
	rootBuf   []byte
	rootDirty bool
	// height is the root's header's, kept by the root's pushes and pulls.
	height int
	// size is the root's sum: read from the root at Open, then kept by the
	// mutators.
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

// rec marks the edit just made to pg and stages a typed extent redo
// record for it, whose payload is built only when one is staged. A nil pg
// is the root, which has no records: its anchor takes it whole at the end
// of the call. With a nil op this is a plain MarkDirty (unlogged).
func (t *Tree) rec(pg *pager.Page, op *pager.Op, payload func() []byte) {
	switch {
	case pg == nil:
		t.rootDirty = true
	case op == nil:
		t.pg.MarkDirty(pg)
	default:
		t.pg.MarkDirtyRec(pg, op, redo.KindExtentOp, payload())
	}
}

// recRange marks pg dirty and stages an absolute byte-range record.
func (t *Tree) recRange(pg *pager.Page, op *pager.Op, off int, b []byte) {
	t.pg.MarkDirtyRec(pg, op, redo.KindRange, redo.EncodeRange(off, b))
}

// begin opens a mutating call by op and returns what closes it: it takes
// the tree lock, makes op the current capture inside one atomic section,
// and makes op's commit wait for the records of the open operation that
// mutated the tree before it (pager.After, keyed by the owner, so the
// dependency outlives every handle on the tree). The closer hands the
// root to the anchor inside the section, so the call's records and the
// root they lead to reach the log together, and reports the anchor's
// error through err when the call had none. Use as defer
// t.begin(op)(&err).
func (t *Tree) begin(op *pager.Op) func(err *error) {
	t.mu.Lock()
	t.curOp = op
	t.pg.After(Key(t.owner), op)
	op.BeginAtomic()
	return func(err *error) {
		if t.anchor != nil {
			if aerr := t.anchor.Keep(op, t.Root(), true); *err == nil {
				*err = aerr
			}
		}
		t.rootDirty = false
		op.EndAtomic()
		t.curOp = nil
		t.mu.Unlock()
	}
}

// Claim makes op the last operation to build on the tree (pager.After),
// under the tree lock, for an operation that writes the tree's anchor and
// not the tree: a deferred rebalance then yields to op (RebalanceAt)
// rather than hand the anchor a root in a system transaction that would
// carry op's uncommitted writes with it.
func (t *Tree) Claim(op *pager.Op) {
	t.mu.Lock()
	t.pg.After(Key(t.owner), op)
	t.mu.Unlock()
}

// Create makes a new empty extent tree owned by no object, with its root
// only in memory.
func Create(pg *pager.Pager, ba *buddy.Allocator, cfg Config) (*Tree, error) {
	return CreateOp(pg, ba, cfg, nil, 0, nil), nil
}

// CreateOp is Create for a tree made by op, owned by owner and anchored
// by anchor. The tree takes no page and no record: it starts as the zero
// Root, which the caller has already put where anchor keeps it. Its
// inverse destroys the tree, so a caller staging the anchor's own inverse
// stages it first.
func CreateOp(pg *pager.Pager, ba *buddy.Allocator, cfg Config, op *pager.Op, owner uint64, anchor Anchor) *Tree {
	t := makeTree(pg, ba, cfg, owner, anchor)
	t.height, t.creator = 1, op.ID()
	op.StageUndo(undo.ExtentDrop(owner))
	// The creator is the tree's first builder: an operation that mutates
	// the tree before the creator commits depends on it (pager.After).
	pg.After(Key(owner), op)
	return t
}

// Open loads the tree whose root its anchor keeps as root. It reads no
// page: the root holds the tree's height and its size.
func Open(pg *pager.Pager, ba *buddy.Allocator, root Root, owner uint64, cfg Config, anchor Anchor) (*Tree, error) {
	t := makeTree(pg, ba, cfg, owner, anchor)
	n := root.count()
	if n > R || (root.height() > 1 && n == 0) {
		return nil, fmt.Errorf("%w: root of %d cells at height %d", ErrCorrupt, n, root.height())
	}
	t.height, t.size = root.height(), root.Size()
	node := nodeRef{t.rootBuf}
	node.data[offType] = pageLeaf
	if t.height > 1 {
		node.data[offType] = pageInternal
	}
	copy(cellBytes(node, 0, n), root[1:])
	node.setNCells(n)
	return t, nil
}

func makeTree(pg *pager.Pager, ba *buddy.Allocator, cfg Config, owner uint64, anchor Anchor) *Tree {
	cfg.Fill(pg.BlockSize())
	t := &Tree{
		pg: pg, space: pager.NewSpace(pg, ba), dev: pg.Device(), cfg: cfg,
		owner: owner, anchor: anchor, bs: pg.BlockSize(), bsU64: uint64(pg.BlockSize()),
		rootBuf: make([]byte, hdrSize+R*leafCellSize+ownerLen),
	}
	initNode(t.rootBuf, pageLeaf, owner)
	return t
}

// Root returns the root node as the anchor keeps it.
func (t *Tree) Root() Root {
	var r Root
	n := nodeRef{t.rootBuf}
	r[0] = byte(t.height-1)<<3 | byte(n.ncells())
	copy(r[1:], cellBytes(n, 0, n.ncells()))
	return r
}

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
		err = t.with(leafPno, func(node nodeRef, _ *pager.Page) error {
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

// capOf returns how many cells node no, of type typ, holds.
func (t *Tree) capOf(no uint64, typ byte) int {
	switch {
	case no == rootNo:
		return R
	case typ == pageLeaf:
		return t.leafCap()
	default:
		return t.internalCap()
	}
}

// with runs fn on node no: the root, in memory (pg nil), or a pinned page.
func (t *Tree) with(no uint64, fn func(n nodeRef, pg *pager.Page) error) error {
	if no == rootNo {
		return fn(nodeRef{t.rootBuf}, nil)
	}
	return t.pg.With(no, func(pg *pager.Page) error { return fn(nodeRef{pg.Data()}, pg) })
}

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
	var path []pathElem
	leaf, rem, err := t.walk(off, &path)
	return path, leaf, rem, err
}

// walk is descend's body, appending each internal step to *path unless
// path is nil: a reader needs no path, and a tree of more than R extents
// has internal steps, whose path would cost a read an allocation.
func (t *Tree) walk(off uint64, path *[]pathElem) (uint64, uint64, error) {
	pno := rootNo
	rem := off
	for level := 0; level < t.height-1; level++ {
		var idx int
		var child uint64
		err := t.with(pno, func(n nodeRef, _ *pager.Page) error {
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
			return 0, 0, err
		}
		if path != nil {
			*path = append(*path, pathElem{pno, idx})
		}
		pno = child
	}
	t.addStat(func(s *Stats) { s.Descents++; s.LevelsTouched += int64(t.height) })
	return pno, rem, nil
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
		err := t.with(pe.pno, func(n nodeRef, pg *pager.Page) error {
			c := n.childCell(pe.idx)
			c.bytes = uint64(int64(c.bytes) + delta)
			n.setChildCell(pe.idx, c)
			t.rec(pg, t.curOp, func() []byte { return redo.EncodeOp(xopBump, redo.U16(pe.idx), redo.U64(uint64(delta))) })
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
