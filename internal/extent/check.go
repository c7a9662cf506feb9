package extent

import (
	"fmt"
	"sort"
)

// CheckResult summarizes an extent-tree integrity walk.
type CheckResult struct {
	Bytes          uint64   // total logical bytes found in leaves
	Extents        uint64   // extents found
	Holes          uint64   // hole extents
	AllocatedBytes uint64   // device bytes reserved by real extents
	Pages          int      // node pages
	AllPages       []uint64 // node + header pages owned by the tree
	DataExtents    []Extent // real extents, for allocator cross-checks
}

// InternalFragmentation returns reserved-but-unused device bytes.
func (r *CheckResult) InternalFragmentation() uint64 {
	var live uint64
	for _, e := range r.DataExtents {
		live += uint64(e.Len)
	}
	return r.AllocatedBytes - live
}

// Check verifies the counted-tree invariants:
//
//   - every internal child entry's byte total equals the recursive sum of
//     its subtree
//   - all leaves at equal depth, chained consistently left to right
//   - the header's size and extent count match the leaves
//   - extent Len ≤ AllocBlocks × block size for real extents
//   - no page is reached twice
func (t *Tree) Check() (*CheckResult, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()

	res := &CheckResult{AllPages: []uint64{t.hdr}}
	seen := map[uint64]bool{t.hdr: true}
	var leaves []uint64

	var walk func(pno uint64, level int) (uint64, error)
	walk = func(pno uint64, level int) (uint64, error) {
		if seen[pno] {
			return 0, fmt.Errorf("%w: page %d reached twice", ErrCorrupt, pno)
		}
		seen[pno] = true
		res.AllPages = append(res.AllPages, pno)
		res.Pages++
		pg, err := t.pg.Acquire(pno)
		if err != nil {
			return 0, err
		}
		node := nodeRef{pg.Data()}
		if level == t.height-1 {
			if node.typ() != pageLeaf {
				t.pg.Release(pg)
				return 0, fmt.Errorf("%w: page %d should be a leaf", ErrCorrupt, pno)
			}
			var sum uint64
			for i := 0; i < node.ncells(); i++ {
				e := node.leafCell(i)
				sum += uint64(e.Len)
				res.Extents++
				if e.IsHole() {
					res.Holes++
					if e.AllocBlocks != 0 {
						t.pg.Release(pg)
						return 0, fmt.Errorf("%w: hole with allocation", ErrCorrupt)
					}
				} else {
					if uint64(e.Len) > uint64(e.AllocBlocks)*t.bsU64 {
						t.pg.Release(pg)
						return 0, fmt.Errorf("%w: extent len %d exceeds alloc %d blocks", ErrCorrupt, e.Len, e.AllocBlocks)
					}
					if e.Len == 0 {
						t.pg.Release(pg)
						return 0, fmt.Errorf("%w: zero-length real extent", ErrCorrupt)
					}
					res.AllocatedBytes += uint64(e.AllocBlocks) * t.bsU64
					res.DataExtents = append(res.DataExtents, e)
				}
			}
			res.Bytes += sum
			leaves = append(leaves, pno)
			t.pg.Release(pg)
			return sum, nil
		}
		if node.typ() != pageInternal {
			t.pg.Release(pg)
			return 0, fmt.Errorf("%w: page %d should be internal", ErrCorrupt, pno)
		}
		type ent struct {
			child uint64
			bytes uint64
		}
		ents := make([]ent, node.ncells())
		for i := range ents {
			c := node.childCell(i)
			ents[i] = ent{c.child, c.bytes}
		}
		t.pg.Release(pg)
		var sum uint64
		for _, e := range ents {
			got, err := walk(e.child, level+1)
			if err != nil {
				return 0, err
			}
			if got != e.bytes {
				return 0, fmt.Errorf("%w: child %d count %d, subtree has %d", ErrCorrupt, e.child, e.bytes, got)
			}
			sum += got
		}
		return sum, nil
	}

	total, err := walk(t.root, 0)
	if err != nil {
		return nil, err
	}
	if total != t.size {
		return nil, fmt.Errorf("%w: header size %d, tree holds %d", ErrCorrupt, t.size, total)
	}
	if res.Extents != t.extents {
		return nil, fmt.Errorf("%w: header extents %d, found %d", ErrCorrupt, t.extents, res.Extents)
	}
	// Verify the leaf chain matches the in-order walk.
	var prev uint64
	cur := uint64(0)
	if len(leaves) > 0 {
		cur = leaves[0]
	}
	for i, want := range leaves {
		if cur != want {
			return nil, fmt.Errorf("%w: leaf chain diverges at %d", ErrCorrupt, i)
		}
		pg, err := t.pg.Acquire(cur)
		if err != nil {
			return nil, err
		}
		node := nodeRef{pg.Data()}
		if node.prev() != prev {
			t.pg.Release(pg)
			return nil, fmt.Errorf("%w: leaf %d prev %d, want %d", ErrCorrupt, cur, node.prev(), prev)
		}
		next := node.next()
		t.pg.Release(pg)
		prev, cur = cur, next
	}
	if cur != 0 {
		return nil, fmt.Errorf("%w: leaf chain continues past end", ErrCorrupt)
	}
	// No allocation may be referenced by two extents of this tree (each
	// allocation has exactly one owner; boundary splits copy the tail
	// into a fresh allocation). Sort by first block and check adjacency.
	sorted := append([]Extent(nil), res.DataExtents...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Alloc < sorted[j].Alloc })
	for i := 1; i < len(sorted); i++ {
		prev := sorted[i-1]
		if prev.Alloc+uint64(prev.AllocBlocks) > sorted[i].Alloc {
			return nil, fmt.Errorf("%w: extent allocations overlap: [%d,+%d) and [%d,+%d)",
				ErrCorrupt, prev.Alloc, prev.AllocBlocks, sorted[i].Alloc, sorted[i].AllocBlocks)
		}
	}
	return res, nil
}

// Recount recomputes every internal node's subtree byte totals and the
// header's size and extent count from the leaves, repairing them in
// place. Crash recovery calls it on unclean opens: these are
// cross-transaction counters — absolute values whose freshest committed
// record may have been computed on top of a neighbour's since-dropped
// uncommitted edit — that no single redo record can own, exactly like
// btree key counts (btree.RecountKeys). Like RecountKeys it dirties only
// what was wrong: recovery runs it with first-touch base images already
// on, so a header rewritten for nothing would log a 4 KiB image per
// object and could fill the log recovery had just emptied.
func (t *Tree) Recount() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var walk func(pno uint64, level int) (uint64, uint64, error)
	walk = func(pno uint64, level int) (uint64, uint64, error) {
		pg, err := t.pg.Acquire(pno)
		if err != nil {
			return 0, 0, err
		}
		n := nodeRef{pg.Data()}
		if level == t.height-1 {
			bytes, exts := n.leafSum(), uint64(n.ncells())
			t.pg.Release(pg)
			return bytes, exts, nil
		}
		type ent struct{ child, bytes uint64 }
		ents := make([]ent, n.ncells())
		for i := range ents {
			c := n.childCell(i)
			ents[i] = ent{c.child, c.bytes}
		}
		t.pg.Release(pg)
		var total, exts uint64
		for i, e := range ents {
			b, x, err := walk(e.child, level+1)
			if err != nil {
				return 0, 0, err
			}
			if b != e.bytes {
				pg, err := t.pg.Acquire(pno)
				if err != nil {
					return 0, 0, err
				}
				nodeRef{pg.Data()}.setChildCell(i, childEntry{e.child, b})
				t.pg.MarkDirty(pg)
				t.pg.Release(pg)
			}
			total += b
			exts += x
		}
		return total, exts, nil
	}
	total, exts, err := walk(t.root, 0)
	if err != nil {
		return err
	}
	if total == t.size && exts == t.extents {
		return nil
	}
	t.size, t.extents = total, exts
	return t.writeHeader()
}
