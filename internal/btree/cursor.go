package btree

import (
	"bytes"
	"math"

	"repro/internal/pager"
)

// Scan visits every key in [lo, hi) in ascending order, calling fn with
// copies of each key and value. A nil lo starts at the first key; a nil hi
// scans to the end. fn returning false stops the scan early. The tree's
// read lock is held for the duration, so fn must not mutate the tree.
func (t *Tree) Scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()

	leaf, idx, err := t.seekLeaf(lo)
	if err != nil {
		return err
	}
	levels := int64(t.height)
	type kv struct{ k, v []byte }
	for leaf != 0 {
		var batch []kv
		var next uint64
		done := false
		err := t.pg.With(leaf, func(pg *pager.Page) error {
			p := pageRef{pg.Data()}
			n := p.ncells()
			next = p.ptrA()
			for ; idx < n; idx++ {
				c, err := p.decodeCell(idx)
				if err != nil {
					return err
				}
				if hi != nil && bytes.Compare(c.key, hi) >= 0 {
					done = true
					return nil
				}
				// An overflow chain is read with the leaf still pinned; the
				// chain pins one page at a time.
				cc := c.copyOut()
				v, err := t.value(cc)
				if err != nil {
					return err
				}
				batch = append(batch, kv{cc.key, v})
			}
			return nil
		})
		if err != nil {
			return err
		}
		levels++
		for _, e := range batch {
			if !fn(e.k, e.v) {
				t.addStats(1, levels, 0, 0)
				return nil
			}
		}
		if done {
			break
		}
		leaf = next
		idx = 0
	}
	t.addStats(1, levels, 0, 0)
	return nil
}

// ScanPrefix visits every key beginning with prefix in ascending order.
func (t *Tree) ScanPrefix(prefix []byte, fn func(key, val []byte) bool) error {
	return t.Scan(prefix, prefixEnd(prefix), fn)
}

// prefixEnd returns the smallest key greater than every key with the given
// prefix, or nil if no such key exists (prefix is all 0xFF).
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// seekLeaf descends to the leaf that should contain lo (or the first leaf
// when lo is nil) and returns the leaf page and starting cell index.
func (t *Tree) seekLeaf(lo []byte) (uint64, int, error) {
	pno := t.root
	for level := 0; level < t.height-1; level++ {
		err := t.pg.With(pno, func(pg *pager.Page) error {
			p := pageRef{pg.Data()}
			idx := 0
			if lo != nil {
				var err error
				if idx, _, err = p.search(lo); err != nil {
					return err
				}
			}
			var err error
			pno, err = p.childAt(idx)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
	}
	idx := 0
	if lo != nil {
		err := t.pg.With(pno, func(pg *pager.Page) error {
			var err error
			idx, _, err = pageRef{pg.Data()}.search(lo)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
	}
	return pno, idx, nil
}

// First returns the smallest key and its value, or ErrNotFound if empty.
func (t *Tree) First() ([]byte, []byte, error) {
	var k, v []byte
	found := false
	err := t.Scan(nil, nil, func(key, val []byte) bool {
		k, v = key, val
		found = true
		return false
	})
	if err != nil {
		return nil, nil, err
	}
	if !found {
		return nil, nil, ErrNotFound
	}
	return k, v, nil
}

// Last returns the largest key and its value, or ErrNotFound if empty.
func (t *Tree) Last() ([]byte, []byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pno := t.root
	for level := 0; level < t.height-1; level++ {
		err := t.pg.With(pno, func(pg *pager.Page) error {
			pno = pageRef{pg.Data()}.ptrA()
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	var cc cellCopy
	err := t.pg.With(pno, func(pg *pager.Page) error {
		p := pageRef{pg.Data()}
		n := p.ncells()
		if n == 0 {
			return ErrNotFound
		}
		c, err := p.decodeCell(n - 1)
		cc = c.copyOut()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	v, err := t.value(cc)
	if err != nil {
		return nil, nil, err
	}
	return cc.key, v, nil
}

// Floor returns the greatest key ≤ target and its value, or ErrNotFound
// if every key is greater than target (or the tree is empty).
func (t *Tree) Floor(target []byte) ([]byte, []byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf, idx, err := t.seekLeaf(target)
	if err != nil {
		return nil, nil, err
	}
	// idx is the first cell ≥ target within leaf. The floor is that cell
	// if it equals target, else the one before it — in an earlier leaf
	// (the last cell of the first non-empty one) when idx is 0.
	for leaf != 0 {
		var cc cellCopy
		hit := false
		err := t.pg.With(leaf, func(pg *pager.Page) error {
			p := pageRef{pg.Data()}
			idx = min(idx, p.ncells())
			if idx < p.ncells() {
				c, err := p.decodeCell(idx)
				if err != nil {
					return err
				}
				if hit = compareKeys(c.key, target) == 0; hit {
					cc = c.copyOut()
					return nil
				}
			}
			if idx > 0 {
				c, err := p.decodeCell(idx - 1)
				hit, cc = true, c.copyOut()
				return err
			}
			// Step back into the previous leaf's last cell.
			leaf, idx = p.ptrB(), math.MaxInt
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if hit {
			v, err := t.value(cc)
			if err != nil {
				return nil, nil, err
			}
			return cc.key, v, nil
		}
	}
	return nil, nil, ErrNotFound
}

// Cursor streams the keys of [lo, hi) in ascending order without
// materializing the range, one Next call per entry. It is the substrate
// for the index layer's streaming query iterators: an intersection over a
// selective term Seeks a cursor over a broad one instead of scanning it.
//
// A cursor holds no tree lock between calls; each Next/Seek briefly takes
// the tree's read lock. The cursor caches its leaf position and the tree
// generation it was taken under — if the tree mutates between calls the
// cursor transparently re-seeks past the last key it returned, so
// iteration stays correct (never duplicating or going backwards) at the
// cost of one extra descent per interleaved write. A cursor is not safe
// for concurrent use by multiple goroutines.
type Cursor struct {
	t  *Tree
	hi []byte // exclusive upper bound; nil = none

	leaf    uint64 // current leaf page; meaningful only when primed
	idx     int    // next cell index within leaf
	gen     uint64 // tree generation at which (leaf, idx) was taken
	primed  bool   // position established
	done    bool   // iteration exhausted
	resumed bool   // position re-derived from last; skip keys <= last

	target []byte // pending seek key (first key >= target), nil = first
	last   []byte // last key returned, for repositioning after writes
}

// NewCursor returns a cursor over [lo, hi). A nil lo starts at the first
// key; a nil hi iterates to the end.
func (t *Tree) NewCursor(lo, hi []byte) *Cursor {
	c := &Cursor{t: t}
	if lo != nil {
		c.target = append([]byte(nil), lo...)
	}
	if hi != nil {
		c.hi = append([]byte(nil), hi...)
	}
	return c
}

// NewPrefixCursor returns a cursor over every key beginning with prefix.
func (t *Tree) NewPrefixCursor(prefix []byte) *Cursor {
	return t.NewCursor(prefix, prefixEnd(prefix))
}

// Seek repositions the cursor so the following Next returns the first key
// >= key (within the cursor's upper bound). Seeking backwards is allowed.
func (c *Cursor) Seek(key []byte) {
	c.target = append(c.target[:0], key...)
	c.primed = false
	c.done = false
	c.resumed = false
	c.last = nil
}

// Next returns the next key/value in order, or ok=false when the range is
// exhausted. The returned slices are copies and may be retained.
func (c *Cursor) Next() ([]byte, []byte, bool, error) {
	c.t.mu.RLock()
	defer c.t.mu.RUnlock()
	if c.done {
		return nil, nil, false, nil
	}
	if !c.primed || c.gen != c.t.gen {
		start := c.target
		if c.last != nil {
			// Re-derive the position from the last key we handed out.
			start = c.last
			c.resumed = true
		}
		leaf, idx, err := c.t.seekLeaf(start)
		if err != nil {
			return nil, nil, false, err
		}
		c.leaf, c.idx, c.gen, c.primed = leaf, idx, c.t.gen, true
	}
	for c.leaf != 0 {
		var cc cellCopy
		hit := false
		err := c.t.pg.With(c.leaf, func(pg *pager.Page) error {
			p := pageRef{pg.Data()}
			for n := p.ncells(); c.idx < n; c.idx++ {
				cell, err := p.decodeCell(c.idx)
				if err != nil {
					return err
				}
				if c.hi != nil && bytes.Compare(cell.key, c.hi) >= 0 {
					c.done = true
					return nil
				}
				if c.resumed {
					if bytes.Compare(cell.key, c.last) <= 0 {
						continue // already returned before the re-seek
					}
					c.resumed = false
				}
				cc, hit = cell.copyOut(), true
				c.idx++
				c.last = cc.key
				return nil
			}
			c.leaf, c.idx = p.ptrA(), 0
			return nil
		})
		if err != nil {
			return nil, nil, false, err
		}
		if c.done {
			return nil, nil, false, nil
		}
		if hit {
			// An overflow chain is read once the leaf's pin is gone.
			v, err := c.t.value(cc)
			if err != nil {
				return nil, nil, false, err
			}
			return cc.key, v, true, nil
		}
	}
	c.done = true
	return nil, nil, false, nil
}

// Count returns the number of keys in [lo, hi).
func (t *Tree) Count(lo, hi []byte) (uint64, error) {
	var n uint64
	err := t.Scan(lo, hi, func(_, _ []byte) bool {
		n++
		return true
	})
	return n, err
}
