package extent

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/buddy"
	"repro/internal/pager"
	"repro/internal/undo"
)

// maxHoleLen bounds a single hole cell (Len is uint32).
const maxHoleLen = 1 << 30

// ReadAt reads into p starting at byte offset off, zero-filling holes.
// It returns the number of bytes read; reads that reach the object's end
// return io.EOF alongside the bytes read, as io.ReaderAt does.
func (t *Tree) ReadAt(p []byte, off uint64) (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.readAtLocked(p, off)
}

// readAtLocked is ReadAt with t.mu already held (either mode). Mutation
// paths use it to read before-images for undo records while holding the
// exclusive lock.
func (t *Tree) readAtLocked(p []byte, off uint64) (int, error) {
	if off >= t.size {
		return 0, io.EOF
	}
	n := len(p)
	eof := false
	if off+uint64(n) >= t.size {
		n = int(t.size - off)
		eof = true
	}
	p = p[:n]

	_, leafPno, rem, err := t.descend(off)
	if err != nil {
		return 0, err
	}
	type job struct {
		e    Extent
		eOff uint64
		m    int
	}
	done := 0
	for done < n && leafPno != 0 {
		var jobs []job
		var next uint64
		err := t.pg.With(leafPno, func(pg *pager.Page) error {
			node := nodeRef{pg.Data()}
			idx, eOff := node.findInLeaf(rem)
			for cnt := node.ncells(); idx < cnt && done < n; idx++ {
				e := node.leafCell(idx)
				m := n - done
				if avail := uint64(e.Len) - eOff; uint64(m) > avail {
					m = int(avail)
				}
				jobs = append(jobs, job{e, eOff, m})
				done += m
				eOff = 0
			}
			next = node.next()
			return nil
		})
		if err != nil {
			return done, err
		}
		// Perform device I/O outside the page pin.
		pos := done
		for i := len(jobs) - 1; i >= 0; i-- {
			pos -= jobs[i].m
		}
		for _, j := range jobs {
			dst := p[pos : pos+j.m]
			if j.e.IsHole() {
				for i := range dst {
					dst[i] = 0
				}
			} else if err := t.readExtentData(j.e, j.eOff, dst); err != nil {
				return pos, err
			}
			pos += j.m
		}
		leafPno = next
		rem = 0
	}
	if done < n {
		return done, fmt.Errorf("%w: ran out of extents at %d of %d", ErrCorrupt, done, n)
	}
	if eof {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt writes p at byte offset off, extending the object as needed.
// Writing past the current end creates a hole (sparse object).
func (t *Tree) WriteAt(p []byte, off uint64) error {
	return t.WriteAtOp(nil, p, off)
}

// WriteAtOp is WriteAt capturing node-page mutations into op's redo set.
func (t *Tree) WriteAtOp(op *pager.Op, p []byte, off uint64) error {
	defer t.begin(op)()
	if len(p) == 0 {
		return nil
	}
	if t.inverts(op) {
		end := off + uint64(len(p))
		if off < t.size {
			// Overlap: the inverse restores the overwritten bytes.
			oend := end
			if oend > t.size {
				oend = t.size
			}
			old, err := t.oldBytes(off, oend-off)
			if err != nil {
				return err
			}
			op.StageUndo(undo.ExtWrite(t.hdr, off, old))
		}
		if end > t.size {
			// Growth (hole plus tail data): the inverse truncates back.
			op.StageUndo(undo.ExtDel(t.hdr, t.size, end-t.size))
		}
	}
	return t.writeAtLocked(p, off)
}

// oldBytes reads [off, off+n) as an undo before-image. Holes read back
// as zeros, so re-inserting the image materializes them — logically
// identical content, merely a denser physical representation.
func (t *Tree) oldBytes(off, n uint64) ([]byte, error) {
	buf := make([]byte, n)
	if n == 0 {
		return buf, nil
	}
	if _, err := t.readAtLocked(buf, off); err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf, nil
}

func (t *Tree) writeAtLocked(p []byte, off uint64) error {
	if off > t.size {
		if err := t.appendHole(off - t.size); err != nil {
			return err
		}
	}
	done := 0
	// Overwrite the portion overlapping existing bytes.
	for done < len(p) && off+uint64(done) < t.size {
		cur := off + uint64(done)
		path, leafPno, rem, err := t.descend(cur)
		if err != nil {
			return err
		}
		idx, eOff, e, err := t.cellAt(leafPno, rem)
		if err != nil {
			return err
		}
		if idx < 0 {
			return fmt.Errorf("%w: write descent found no extent at %d", ErrCorrupt, cur)
		}
		avail := uint64(e.Len) - eOff
		m := len(p) - done
		if uint64(m) > avail {
			m = int(avail)
		}
		if !e.IsHole() {
			if err := t.recWrote(e, eOff, uint64(m)); err != nil {
				return err
			}
			if err := t.writeExtentData(e, eOff, p[done:done+m]); err != nil {
				return err
			}
		} else {
			// Materialize exactly [cur, cur+m) of the hole, then land the
			// data in fresh allocations.
			if err := t.splitBoundaryLocked(cur); err != nil {
				return err
			}
			if err := t.splitBoundaryLocked(cur + uint64(m)); err != nil {
				return err
			}
			// After splitting, one hole cell spans exactly [cur, cur+m).
			path, leafPno, rem, err = t.descend(cur)
			if err != nil {
				return err
			}
			idx, eOff, he, err := t.cellAt(leafPno, rem)
			if err != nil {
				return err
			}
			if eOff != 0 || idx < 0 {
				return fmt.Errorf("%w: hole not aligned after split", ErrCorrupt)
			}
			if !he.IsHole() || uint64(he.Len) != uint64(m) {
				return fmt.Errorf("%w: expected %d-byte hole at %d", ErrCorrupt, m, cur)
			}
			if err := t.removeCellAt(path, leafPno, idx, cur); err != nil {
				return err
			}
			t.size -= uint64(m)
			if err := t.insertBytesAt(cur, p[done:done+m]); err != nil {
				return err
			}
		}
		done += m
	}
	// Append the remainder.
	if done < len(p) {
		return t.appendBytes(p[done:])
	}
	return nil
}

// Append writes p at the current end of the object and returns the new
// size. Unlike WriteAt(p, Size()), the end offset is resolved under the
// same lock acquisition that performs the write, so concurrent appenders
// serialize instead of landing on one stale offset and overwriting each
// other.
func (t *Tree) Append(p []byte) (uint64, error) {
	return t.AppendOp(nil, p)
}

// AppendOp is Append capturing node-page mutations into op's redo set.
func (t *Tree) AppendOp(op *pager.Op, p []byte) (uint64, error) {
	defer t.begin(op)()
	if len(p) == 0 {
		return t.size, nil
	}
	if t.inverts(op) {
		// Inverse of an append: delete the appended tail.
		op.StageUndo(undo.ExtDel(t.hdr, t.size, uint64(len(p))))
	}
	err := t.appendBytes(p)
	return t.size, err
}

// InsertAt inserts p at byte offset off, shifting all later bytes and
// growing the object by len(p). This is the paper's insert call: the
// structural cost is O(log extents) plus at most one bounded tail copy.
func (t *Tree) InsertAt(off uint64, p []byte) error {
	return t.InsertAtOp(nil, off, p)
}

// InsertAtOp is InsertAt capturing node-page mutations into op's redo set.
func (t *Tree) InsertAtOp(op *pager.Op, off uint64, p []byte) error {
	defer t.begin(op)()
	if off > t.size {
		return fmt.Errorf("%w: insert at %d, size %d", ErrOutOfRange, off, t.size)
	}
	if len(p) == 0 {
		return nil
	}
	if t.inverts(op) {
		// Inverse of an insert: delete the inserted range, shifting the
		// later bytes back down.
		op.StageUndo(undo.ExtDel(t.hdr, off, uint64(len(p))))
	}
	return t.insertAtLocked(off, p)
}

func (t *Tree) insertAtLocked(off uint64, p []byte) error {
	if err := t.splitBoundaryLocked(off); err != nil {
		return err
	}
	return t.insertBytesAt(off, p)
}

// DeleteRange removes n bytes starting at off, shrinking the object and
// shifting later bytes down. This is the paper's two-argument truncate.
func (t *Tree) DeleteRange(off, n uint64) error {
	return t.DeleteRangeOp(nil, off, n)
}

// DeleteRangeOp is DeleteRange capturing node-page mutations into op's
// redo set.
func (t *Tree) DeleteRangeOp(op *pager.Op, off, n uint64) error {
	defer t.begin(op)()
	if off >= t.size || n == 0 {
		return nil
	}
	if t.inverts(op) {
		// Inverse of a delete-range: re-insert the removed bytes.
		m := n
		if off+m > t.size {
			m = t.size - off
		}
		old, err := t.oldBytes(off, m)
		if err != nil {
			return err
		}
		op.StageUndo(undo.ExtIns(t.hdr, off, old))
	}
	return t.deleteRangeLocked(off, n)
}

func (t *Tree) deleteRangeLocked(off, n uint64) error {
	if off >= t.size || n == 0 {
		return nil
	}
	if off+n > t.size {
		n = t.size - off
	}
	if err := t.splitBoundaryLocked(off); err != nil {
		return err
	}
	if err := t.splitBoundaryLocked(off + n); err != nil {
		return err
	}
	var removed uint64
	for removed < n {
		path, leafPno, rem, err := t.descend(off)
		if err != nil {
			return err
		}
		idx, eOff, e, err := t.cellAt(leafPno, rem)
		if err != nil {
			return err
		}
		if eOff != 0 || idx < 0 {
			return fmt.Errorf("%w: delete not on boundary at %d", ErrCorrupt, off)
		}
		if uint64(e.Len) > n-removed {
			return fmt.Errorf("%w: extent %d overruns delete range", ErrCorrupt, e.Len)
		}
		if !e.IsHole() {
			// The run is freed through the allocator's limbo when deferred
			// frees are on: it must not be reallocated (and overwritten)
			// before this delete's commit — and the checkpoint covering it
			// — are durable, or a crash could replay the old extent over a
			// new owner's blocks.
			if err := t.space.Free(t.curOp, e.Alloc, uint64(e.AllocBlocks)); err != nil {
				return err
			}
		}
		if err := t.removeCellAt(path, leafPno, idx, off); err != nil {
			return err
		}
		removed += uint64(e.Len)
		t.size -= uint64(e.Len)
	}
	return nil
}

// Truncate sets the object's size. Shrinking frees storage from the end;
// growing appends a hole.
func (t *Tree) Truncate(newSize uint64) error {
	return t.TruncateOp(nil, newSize)
}

// TruncateOp is Truncate capturing node-page mutations into op's redo set.
func (t *Tree) TruncateOp(op *pager.Op, newSize uint64) error {
	defer t.begin(op)()
	switch {
	case newSize < t.size:
		if t.inverts(op) {
			// Inverse of a shrink: re-insert the truncated tail.
			old, err := t.oldBytes(newSize, t.size-newSize)
			if err != nil {
				return err
			}
			op.StageUndo(undo.ExtIns(t.hdr, newSize, old))
		}
		return t.deleteRangeLocked(newSize, t.size-newSize)
	case newSize > t.size:
		if t.inverts(op) {
			// Inverse of a grow: delete the appended hole.
			op.StageUndo(undo.ExtDel(t.hdr, t.size, newSize-t.size))
		}
		return t.appendHole(newSize - t.size)
	default:
		return nil
	}
}

// Destroy frees all extents and tree pages, including the header,
// logging the frees into op. It stages one inverse for all of them before
// it frees any, and edits nothing, so a rollback takes the tree back
// intact — this handle included; the pages leave the cache only once op
// commits. The tree must not be used once op has committed.
func (t *Tree) Destroy(op *pager.Op) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	pages := []uint64{t.hdr}
	var data []undo.Run
	var walk func(pno uint64, level int) error
	walk = func(pno uint64, level int) error {
		pages = append(pages, pno)
		var children []uint64
		err := t.pg.With(pno, func(pg *pager.Page) error {
			node := nodeRef{pg.Data()}
			for i := 0; i < node.ncells(); i++ {
				if level < t.height-1 {
					children = append(children, node.childCell(i).child)
				} else if e := node.leafCell(i); !e.IsHole() {
					data = append(data, undo.Run{Addr: e.Alloc, N: uint64(e.AllocBlocks)})
				}
			}
			return nil
		})
		for _, c := range children {
			if err == nil {
				err = walk(c, level+1)
			}
		}
		return err
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	return t.space.Drop(op, pages, data)
}

// --- internals (lock held) ---

// firstLeaf returns the leftmost leaf page.
func (t *Tree) firstLeaf() (uint64, error) {
	pno := t.root
	for level := 0; level < t.height-1; level++ {
		err := t.pg.With(pno, func(pg *pager.Page) error {
			node := nodeRef{pg.Data()}
			if node.ncells() == 0 {
				return fmt.Errorf("%w: empty internal node %d", ErrCorrupt, pno)
			}
			pno = node.childCell(0).child
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return pno, nil
}

// cellAt pins leaf leafPno just long enough to find the cell holding byte
// offset rem, returning its index (-1 when rem lies past the leaf's last
// cell), the offset within it and a copy of the cell.
func (t *Tree) cellAt(leafPno, rem uint64) (idx int, eOff uint64, e Extent, err error) {
	err = t.pg.With(leafPno, func(pg *pager.Page) error {
		node := nodeRef{pg.Data()}
		if idx, eOff = node.findInLeaf(rem); idx < node.ncells() {
			e = node.leafCell(idx)
		} else {
			idx = -1
		}
		return nil
	})
	return idx, eOff, e, err
}

// leafCells pins leaf leafPno just long enough to copy out its cells and
// its right neighbour.
func (t *Tree) leafCells(leafPno uint64) (cells []Extent, next uint64, err error) {
	err = t.pg.With(leafPno, func(pg *pager.Page) error {
		node := nodeRef{pg.Data()}
		cells = make([]Extent, node.ncells())
		for i := range cells {
			cells[i] = node.leafCell(i)
		}
		next = node.next()
		return nil
	})
	return cells, next, err
}

// lastCell pins leaf leafPno just long enough to copy out its cell count
// and its last cell (the zero Extent when the leaf is empty).
func (t *Tree) lastCell(leafPno uint64) (cnt int, last Extent, err error) {
	err = t.pg.With(leafPno, func(pg *pager.Page) error {
		node := nodeRef{pg.Data()}
		if cnt = node.ncells(); cnt > 0 {
			last = node.leafCell(cnt - 1)
		}
		return nil
	})
	return cnt, last, err
}

// splitBoundaryLocked ensures an extent boundary exists at byte offset
// off. Splitting a real extent copies the tail into a fresh allocation
// (bounded by MaxExtentBytes) so allocations are never shared.
func (t *Tree) splitBoundaryLocked(off uint64) error {
	if off == 0 || off >= t.size {
		return nil
	}
	path, leafPno, rem, err := t.descend(off)
	if err != nil {
		return err
	}
	idx, eOff, e, err := t.cellAt(leafPno, rem)
	if err != nil || eOff == 0 {
		return err // eOff 0: already on a boundary
	}
	if idx < 0 {
		return fmt.Errorf("%w: split target %d past the leaf's cells", ErrCorrupt, off)
	}

	rightLen := uint64(e.Len) - eOff
	if e.IsHole() {
		if err := t.setLeafCellLen(path, leafPno, idx, uint32(eOff)); err != nil {
			return err
		}
		return t.insertCellAtOff(off, Extent{Len: uint32(rightLen)})
	}
	// Copy the tail into a fresh allocation.
	buf := make([]byte, rightLen)
	if err := t.readExtentData(e, eOff, buf); err != nil {
		return err
	}
	right, err := t.allocAndWrite(buf)
	if err != nil {
		return err
	}
	t.addStat(func(s *Stats) { s.ExtentSplits++; s.TailCopyBytes += int64(rightLen) })
	if err := t.setLeafCellLen(path, leafPno, idx, uint32(eOff)); err != nil {
		_ = t.space.Free(t.curOp, right.Alloc, uint64(right.AllocBlocks)) // never joined the tree
		return err
	}
	return t.insertCellAtOff(off, right)
}

// insertBytesAt inserts data at off (which must be on an extent boundary
// or equal to size), chunked into MaxExtentBytes extents. Grows size.
func (t *Tree) insertBytesAt(off uint64, p []byte) error {
	for len(p) > 0 {
		chunk := len(p)
		if chunk > int(t.cfg.MaxExtentBytes) {
			chunk = int(t.cfg.MaxExtentBytes)
		}
		e, err := t.allocAndWrite(p[:chunk])
		if err != nil {
			return err
		}
		if err := t.insertCellAtOff(off, e); err != nil {
			return err
		}
		t.size += uint64(chunk)
		off += uint64(chunk)
		p = p[chunk:]
	}
	return nil
}

// appendBytes appends p at the end of the object, extending the final
// extent in place when its allocation has slack.
func (t *Tree) appendBytes(p []byte) error {
	for len(p) > 0 {
		path, leafPno, _, err := t.descend(t.size)
		if err != nil {
			return err
		}
		cnt, last, err := t.lastCell(leafPno)
		if err != nil {
			return err
		}
		if cnt > 0 && !last.IsHole() {
			slack := uint64(last.AllocBlocks)*t.bsU64 - uint64(last.Len)
			if slack > 0 {
				m := uint64(len(p))
				if m > slack {
					m = slack
				}
				if err := t.writeExtentData(last, uint64(last.Len), p[:m]); err != nil {
					return err
				}
				if err := t.setLeafCellLen(path, leafPno, cnt-1, last.Len+uint32(m)); err != nil {
					return err
				}
				t.size += m
				p = p[m:]
				continue
			}
		}
		chunk := len(p)
		if chunk > int(t.cfg.MaxExtentBytes) {
			chunk = int(t.cfg.MaxExtentBytes)
		}
		e, err := t.allocAndWrite(p[:chunk])
		if err != nil {
			return err
		}
		if err := t.insertCellAtOff(t.size, e); err != nil {
			return err
		}
		t.size += uint64(chunk)
		p = p[chunk:]
	}
	return nil
}

// appendHole extends the object with n bytes of zeros, coalescing with a
// trailing hole when present.
func (t *Tree) appendHole(n uint64) error {
	for n > 0 {
		path, leafPno, _, err := t.descend(t.size)
		if err != nil {
			return err
		}
		cnt, last, err := t.lastCell(leafPno)
		if err != nil {
			return err
		}
		if cnt > 0 && last.IsHole() && uint64(last.Len) < maxHoleLen {
			grow := maxHoleLen - uint64(last.Len)
			if grow > n {
				grow = n
			}
			if err := t.setLeafCellLen(path, leafPno, cnt-1, last.Len+uint32(grow)); err != nil {
				return err
			}
			t.size += grow
			n -= grow
			continue
		}
		chunk := n
		if chunk > maxHoleLen {
			chunk = maxHoleLen
		}
		if err := t.insertCellAtOff(t.size, Extent{Len: uint32(chunk)}); err != nil {
			return err
		}
		t.size += chunk
		n -= chunk
	}
	return nil
}

// allocAndWrite allocates blocks for p and writes it, returning the extent.
func (t *Tree) allocAndWrite(p []byte) (Extent, error) {
	blocks := (uint64(len(p)) + t.bsU64 - 1) / t.bsU64
	alloc, err := t.space.Alloc(t.curOp, blocks)
	if err != nil {
		return Extent{}, err
	}
	e := Extent{Alloc: alloc, AllocBlocks: uint32(buddy.RoundUp(blocks)), Len: uint32(len(p))}
	if err := t.writeExtentData(e, 0, p); err != nil {
		// The run never joined the tree. Its allocation is already in the
		// operation's records, which commit even when the operation fails,
		// so it must be given back in the same records or it is lost.
		_ = t.space.Free(t.curOp, alloc, blocks)
		return Extent{}, err
	}
	return e, nil
}

// --- raw device data I/O ---

// blockBufs recycles the scratch block a partial-block read goes through.
// A tree's readers share only its read lock, so one buffer per tree would
// race; a pool gives each concurrent read its own without allocating.
var blockBufs sync.Pool // of *[]byte

// readExtentData reads len(p) bytes from extent e starting at extOff.
func (t *Tree) readExtentData(e Extent, extOff uint64, p []byte) error {
	var bp *[]byte
	defer func() {
		if bp != nil {
			blockBufs.Put(bp)
		}
	}()
	for len(p) > 0 {
		blk := e.Alloc + extOff/t.bsU64
		bo := int(extOff % t.bsU64)
		if bo == 0 && len(p) >= t.bs {
			if err := t.dev.ReadBlock(blk, p[:t.bs]); err != nil {
				return err
			}
			p = p[t.bs:]
			extOff += t.bsU64
			continue
		}
		if bp == nil {
			bp, _ = blockBufs.Get().(*[]byte)
			if bp == nil || len(*bp) != t.bs {
				b := make([]byte, t.bs)
				bp = &b
			}
		}
		if err := t.dev.ReadBlock(blk, *bp); err != nil {
			return err
		}
		n := copy(p, (*bp)[bo:])
		p = p[n:]
		extOff += uint64(n)
	}
	return nil
}

// recWrote stages, against the header page, the data blocks an in-place
// overwrite of [extOff, extOff+n) of e is about to rewrite. No leaf cell
// changes, so without it nothing in the log would name them, and recovery
// would hold the new bytes to the sums of the old (see DataRun).
func (t *Tree) recWrote(e Extent, extOff, n uint64) error {
	return t.pg.With(t.hdr, func(hp *pager.Page) error {
		first := extOff / t.bsU64
		last := (extOff + n - 1) / t.bsU64
		t.rec(hp, t.curOp, encXop(xopWrote, xu64(e.Alloc+first), xu64(last-first+1)))
		return nil
	})
}

// writeExtentData writes p into extent e starting at extOff, doing
// read-modify-write for partial blocks.
func (t *Tree) writeExtentData(e Extent, extOff uint64, p []byte) error {
	buf := make([]byte, t.bs)
	for len(p) > 0 {
		blk := e.Alloc + extOff/t.bsU64
		bo := int(extOff % t.bsU64)
		if bo == 0 && len(p) >= t.bs {
			//hfadvet:allow waldata — raw object data rides outside the WAL by design: old-or-new content atomicity, durability carried by the enclosing extent records
			if err := t.dev.WriteBlock(blk, p[:t.bs]); err != nil {
				return err
			}
			p = p[t.bs:]
			extOff += t.bsU64
			continue
		}
		if err := t.dev.ReadBlock(blk, buf); err != nil {
			return err
		}
		n := copy(buf[bo:], p)
		//hfadvet:allow waldata — raw object data rides outside the WAL by design (read-modify-write tail)
		if err := t.dev.WriteBlock(blk, buf); err != nil {
			return err
		}
		p = p[n:]
		extOff += uint64(n)
	}
	return nil
}

// Extents calls fn for every extent in order with its starting offset.
// Used by the checker and the OSD's stat reporting.
func (t *Tree) Extents(fn func(off uint64, e Extent) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leafPno, err := t.firstLeaf()
	if err != nil {
		return err
	}
	var off uint64
	for leafPno != 0 {
		exts, next, err := t.leafCells(leafPno)
		if err != nil {
			return err
		}
		for _, e := range exts {
			if !fn(off, e) {
				return nil
			}
			off += uint64(e.Len)
		}
		leafPno = next
	}
	return nil
}
