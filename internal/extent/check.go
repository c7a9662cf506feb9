package extent

import (
	"fmt"
	"sort"

	"repro/internal/buddy"
	"repro/internal/pager"
)

// CheckResult summarizes an extent-tree integrity walk.
type CheckResult struct {
	Bytes          uint64   // total logical bytes found in leaves
	Extents        uint64   // extents found
	Holes          uint64   // hole extents
	AllocatedBytes uint64   // device bytes reserved by real extents
	Pages          int      // node pages below the root
	AllPages       []uint64 // those pages
	DataExtents    []Extent // real extents, for allocator cross-checks
}

// Check verifies the counted-tree invariants:
//
//   - every internal child entry's byte total equals the recursive sum of
//     its subtree
//   - all leaves at equal depth, chained consistently left to right
//   - the size the tree keeps (the root's sum at Open) matches the leaves
//   - extent Len ≤ its sectors' bytes for real extents, and a slot lies
//     in one block
//   - no page is reached twice
//   - every page names the tree's owner
func (t *Tree) Check() (*CheckResult, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()

	res := &CheckResult{}
	seen := map[uint64]bool{}
	var leaves []uint64

	var walk func(pno uint64, level int) (uint64, error)
	walk = func(pno uint64, level int) (uint64, error) {
		if seen[pno] {
			return 0, fmt.Errorf("%w: page %d reached twice", ErrCorrupt, pno)
		}
		seen[pno] = true
		if pno != rootNo {
			res.AllPages = append(res.AllPages, pno)
			res.Pages++
		}
		type ent struct {
			child uint64
			bytes uint64
		}
		var ents []ent
		var sum uint64
		err := t.with(pno, func(node nodeRef, _ *pager.Page) error {
			if node.owner() != t.owner {
				return fmt.Errorf("%w: page %d names owner %d, the tree %d", ErrCorrupt, pno, node.owner(), t.owner)
			}
			if level == t.height-1 {
				if node.typ() != pageLeaf {
					return fmt.Errorf("%w: page %d should be a leaf", ErrCorrupt, pno)
				}
				for i := 0; i < node.ncells(); i++ {
					e := node.leafCell(i)
					sum += uint64(e.Len)
					res.Extents++
					if e.IsHole() {
						res.Holes++
						if e.Sectors != 0 {
							return fmt.Errorf("%w: hole with allocation", ErrCorrupt)
						}
						continue
					}
					if uint64(e.Len) > e.reserved(t.bsU64) {
						return fmt.Errorf("%w: extent len %d exceeds alloc %d sectors", ErrCorrupt, e.Len, e.Sectors)
					}
					if n := uint64(e.Sectors); n != buddy.RoundUp(n) || (n < buddy.SectorsPerBlock && e.Sector%n != 0) {
						return fmt.Errorf("%w: extent at sector %d: %d sectors is not a run or an aligned slot", ErrCorrupt, e.Sector, n)
					}
					if e.Len == 0 {
						return fmt.Errorf("%w: zero-length real extent", ErrCorrupt)
					}
					res.AllocatedBytes += e.reserved(t.bsU64)
					res.DataExtents = append(res.DataExtents, e)
				}
				res.Bytes += sum
				leaves = append(leaves, pno)
				return nil
			}
			if node.typ() != pageInternal {
				return fmt.Errorf("%w: page %d should be internal", ErrCorrupt, pno)
			}
			ents = make([]ent, node.ncells())
			for i := range ents {
				c := node.childCell(i)
				ents[i] = ent{c.child, c.bytes}
			}
			return nil
		})
		if err != nil || level == t.height-1 {
			return sum, err
		}
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

	total, err := walk(rootNo, 0)
	if err != nil {
		return nil, err
	}
	if total != t.size {
		return nil, fmt.Errorf("%w: size %d, tree holds %d", ErrCorrupt, t.size, total)
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
		var next uint64
		err := t.with(cur, func(node nodeRef, _ *pager.Page) error {
			if node.prev() != prev {
				return fmt.Errorf("%w: leaf %d prev %d, want %d", ErrCorrupt, cur, node.prev(), prev)
			}
			next = node.next()
			return nil
		})
		if err != nil {
			return nil, err
		}
		prev, cur = cur, next
	}
	if cur != 0 {
		return nil, fmt.Errorf("%w: leaf chain continues past end", ErrCorrupt)
	}
	// No allocation may be referenced by two extents of this tree (each
	// allocation has exactly one owner; boundary splits copy the tail
	// into a fresh allocation). Sort by first sector and check adjacency.
	sorted := append([]Extent(nil), res.DataExtents...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Sector < sorted[j].Sector })
	for i := 1; i < len(sorted); i++ {
		prev := sorted[i-1]
		if prev.Sector+uint64(prev.Sectors) > sorted[i].Sector {
			return nil, fmt.Errorf("%w: extent allocations overlap: [%d,+%d) and [%d,+%d)",
				ErrCorrupt, prev.Sector, prev.Sectors, sorted[i].Sector, sorted[i].Sectors)
		}
	}
	return res, nil
}
