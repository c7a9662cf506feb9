package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/pager"
)

// CheckResult summarizes a tree integrity walk.
type CheckResult struct {
	Pages     int      // node pages visited (excluding overflow)
	Keys      uint64   // total keys found in leaves
	Leaves    int      // leaf count
	LeafBytes int      // bytes the leaves' cells and their slots take
	Depth     int      // measured depth
	AllPages  []uint64 // every page owned by the tree (nodes, overflow, header)
	leafCap   int      // bytes a leaf holds past its header
}

// LeafFill is the share of the leaves' room their cells take: near 1
// when every leaf is packed, near 0.5 when each split leaf was left half
// empty. An empty tree has fill 0.
func (r *CheckResult) LeafFill() float64 {
	if r.Leaves == 0 {
		return 0
	}
	return float64(r.LeafBytes) / float64(r.Leaves*r.leafCap)
}

// Check walks the entire tree verifying structural invariants:
//
//   - every page is visited exactly once (no cycles or sharing)
//   - keys within each node are strictly ascending
//   - all keys in child c of internal cell (k, c) are ≤ k
//   - all keys under the rightmost pointer are > the last cell key
//   - all leaves are at the same depth
//   - the leaf chain (ptrA/ptrB) is consistent with tree order
//
// It returns the set of owned pages so the volume checker can cross-check
// against the allocator.
func (t *Tree) Check() (*CheckResult, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()

	res := &CheckResult{AllPages: []uint64{t.hdrPno}, leafCap: t.pg.BlockSize() - hdrSize}
	seen := map[uint64]bool{t.hdrPno: true}

	var leafChain []uint64
	var walk func(pno uint64, depth int, upper []byte, hasUpper bool, lower []byte, hasLower bool) error
	walk = func(pno uint64, depth int, upper []byte, hasUpper bool, lower []byte, hasLower bool) error {
		if seen[pno] {
			return fmt.Errorf("%w: page %d reached twice", ErrCorrupt, pno)
		}
		seen[pno] = true
		res.AllPages = append(res.AllPages, pno)
		res.Pages++

		return t.pg.With(pno, func(pg *pager.Page) error {
			p := pageRef{pg.Data()}

			var prevKey []byte
			checkOrder := func(k []byte, i int) error {
				if i > 0 && bytes.Compare(prevKey, k) >= 0 {
					return fmt.Errorf("%w: page %d keys out of order at cell %d", ErrCorrupt, pno, i)
				}
				if hasUpper && bytes.Compare(k, upper) > 0 {
					return fmt.Errorf("%w: page %d key exceeds separator bound", ErrCorrupt, pno)
				}
				if hasLower && bytes.Compare(k, lower) <= 0 {
					return fmt.Errorf("%w: page %d key below lower bound", ErrCorrupt, pno)
				}
				prevKey = append(prevKey[:0], k...)
				return nil
			}

			switch p.typ() {
			case pageLeaf:
				if res.Depth == 0 {
					res.Depth = depth
				} else if depth != res.Depth {
					return fmt.Errorf("%w: leaf %d at depth %d, others at %d", ErrCorrupt, pno, depth, res.Depth)
				}
				for i := 0; i < p.ncells(); i++ {
					c, err := p.decodeCell(i)
					if err != nil {
						return fmt.Errorf("page %d cell %d: %w", pno, i, err)
					}
					if err := checkOrder(c.key, i); err != nil {
						return err
					}
					res.Keys++
					if c.overflow != 0 {
						if err := t.checkOverflowChain(c.overflow, c.totalLen, seen, res); err != nil {
							return err
						}
					}
				}
				res.Leaves++
				res.LeafBytes += p.usedBytes()
				leafChain = append(leafChain, pno)
				return nil
			case pageInternal:
				if p.ptrA() == 0 {
					return fmt.Errorf("%w: internal page %d missing rightmost child", ErrCorrupt, pno)
				}
				childLower, childHasLower := lower, hasLower
				for i := 0; i < p.ncells(); i++ {
					c, err := p.decodeCell(i)
					if err != nil {
						return fmt.Errorf("page %d cell %d: %w", pno, i, err)
					}
					if err := checkOrder(c.key, i); err != nil {
						return err
					}
					if err := walk(c.child, depth+1, c.key, true, childLower, childHasLower); err != nil {
						return err
					}
					childLower, childHasLower = append([]byte(nil), c.key...), true
				}
				return walk(p.ptrA(), depth+1, upper, hasUpper, childLower, childHasLower)
			default:
				return fmt.Errorf("%w: page %d has type %d", ErrCorrupt, pno, p.typ())
			}
		})
	}

	if err := walk(t.root, 1, nil, false, nil, false); err != nil {
		return nil, err
	}
	if res.Depth != t.height {
		return nil, fmt.Errorf("%w: header says height %d, measured %d", ErrCorrupt, t.height, res.Depth)
	}
	if err := t.checkLeafChain(leafChain); err != nil {
		return nil, err
	}
	return res, nil
}

func (t *Tree) checkOverflowChain(pno uint64, totalLen uint64, seen map[uint64]bool, res *CheckResult) error {
	var got uint64
	for pno != 0 {
		if seen[pno] {
			return fmt.Errorf("%w: overflow page %d reached twice", ErrCorrupt, pno)
		}
		seen[pno] = true
		res.AllPages = append(res.AllPages, pno)
		err := t.pg.With(pno, func(pg *pager.Page) error {
			d := pg.Data()
			if d[offType] != pageOverflow {
				return fmt.Errorf("%w: page %d in overflow chain has type %d", ErrCorrupt, pno, d[offType])
			}
			got += uint64(binary.LittleEndian.Uint16(d[2:]))
			pno = pageRef{d}.ptrA()
			return nil
		})
		if err != nil {
			return err
		}
	}
	if got != totalLen {
		return fmt.Errorf("%w: overflow chain has %d bytes, cell says %d", ErrCorrupt, got, totalLen)
	}
	return nil
}

// checkLeafChain verifies that following ptrA from the first leaf visits
// exactly the leaves of the in-order walk, and that ptrB mirrors it.
func (t *Tree) checkLeafChain(inOrder []uint64) error {
	if len(inOrder) == 0 {
		return nil
	}
	var prev uint64
	cur := inOrder[0]
	for i, want := range inOrder {
		if cur != want {
			return fmt.Errorf("%w: leaf chain diverges at position %d: chain %d, walk %d", ErrCorrupt, i, cur, want)
		}
		var next uint64
		err := t.pg.With(cur, func(pg *pager.Page) error {
			p := pageRef{pg.Data()}
			if p.ptrB() != prev {
				return fmt.Errorf("%w: leaf %d prev pointer %d, want %d", ErrCorrupt, cur, p.ptrB(), prev)
			}
			next = p.ptrA()
			return nil
		})
		if err != nil {
			return err
		}
		prev = cur
		cur = next
	}
	if cur != 0 {
		return fmt.Errorf("%w: leaf chain continues past last leaf to %d", ErrCorrupt, cur)
	}
	return nil
}
