package pager

import (
	"repro/internal/buddy"
	"repro/internal/redo"
)

// A pack is a block one operation allocates and carves into slots: aligned
// power-of-two parts of the block, of one to SectorsPerBlock/2 sectors,
// each holding the first bytes of a small object the operation created
// (FFS's fragments, McKusick et al., 1984). Its bytes gather in buf and
// reach the device in one write when the pack is full or the operation
// closes it. The write is the block's only one: a slot is never written
// in place (a later write to its object moves the object out, see
// extent), and a block that holds a live slot is never allocated again
// (buddy), so recovery holds the block strictly to the one sum logged for
// it, as it holds a built page (redo.KindBuilt).
//
// The log knows a pack only by its slots: each carve stages the
// redo.KindAlloc record of its slot, in the atomic section of the write
// that fills it, and the block's own allocation, and the free of the
// slots no object took, are not logged. So a pack's sectors have one
// owner each in the log as in memory — a slot its object, which frees it
// when it is deleted or moved out or its creation rolled back — and an
// operation that dies with a pack open leaves no sector of it taken.
type pack struct {
	s     Space
	block uint64
	buf   []byte
	taken uint8 // bit i: sector i of the block holds a slot
}

// StartPacking makes op pack the small objects it creates into shared
// blocks (Slot); op writes its last pack with ClosePack before it commits
// or rolls back. Nil-safe.
func (op *Op) StartPacking() {
	if op != nil {
		op.packing = true
	}
}

// Slot places p, the first bytes written to an empty object, in a slot
// of op's open pack, opening a pack when op has none or p does not fit the
// one open. It returns the slot's first sector and its length in sectors;
// ok is false, and nothing is done, when op does not pack or p is more
// than half a block. The slot's bytes are readable (ReadData) from the
// moment Slot returns. On an error no slot is taken.
func (s Space) Slot(op *Op, p []byte) (sec, n uint64, ok bool, err error) {
	bs := s.pg.BlockSize()
	if op == nil || !op.packing || len(p) == 0 || len(p) > bs/2 {
		return 0, 0, false, nil
	}
	unit := bs >> buddy.SectorShift
	n = buddy.RoundUp(uint64((len(p) + unit - 1) / unit))
	i, fits := op.pk.fit(n)
	if !fits {
		if err := op.ClosePack(); err != nil {
			return 0, 0, false, err
		}
		block, err := s.a.Alloc(1)
		if err != nil {
			return 0, 0, false, err
		}
		op.pk = &pack{s: s, block: block, buf: make([]byte, bs)}
		s.pg.packMu.Lock()
		if s.pg.pending == nil {
			s.pg.pending = make(map[uint64][]byte)
		}
		s.pg.pending[block] = op.pk.buf
		s.pg.npending.Add(1)
		s.pg.packMu.Unlock()
		i = 0
	}
	k := op.pk
	k.taken |= uint8((1<<n - 1) << i)
	s.pg.packMu.Lock()
	copy(k.buf[int(i)*unit:], p)
	s.pg.packMu.Unlock()
	sec = k.block<<buddy.SectorShift | i
	op.stageAlloc(false, sec, n)
	if k.taken == 1<<buddy.SectorsPerBlock-1 {
		if err := op.ClosePack(); err != nil {
			_ = s.FreeSectors(op, sec, n)
			return 0, 0, false, err
		}
	}
	return sec, n, true, nil
}

// fit returns the first sector of the pack at which a slot of n sectors
// is free, aligned to n. A nil pack has no room.
func (k *pack) fit(n uint64) (uint64, bool) {
	if k == nil {
		return 0, false
	}
	mask := uint8(1<<n - 1)
	for i := uint64(0); i < buddy.SectorsPerBlock; i += n {
		if k.taken&(mask<<i) == 0 {
			return i, true
		}
	}
	return 0, false
}

// ClosePack writes op's open pack, if it has one, in one device write, and
// stages its sum as a redo.KindBuilt record; then it gives back the
// sectors no slot took and withdraws the pack from the pending registry.
// An operation that packs closes its pack before it commits or rolls
// back. A pack write that failed fails every later ClosePack of op too:
// the objects in that pack reference bytes the device does not hold, so
// the operation must not commit.
func (op *Op) ClosePack() error {
	if op == nil {
		return nil
	}
	if op.pk == nil {
		return op.packFailed
	}
	k := op.pk
	op.pk = nil
	p := op.p
	sums, err := p.putBlock(k.block, k.buf, nil)
	if err == nil {
		op.wrote(redo.KindBuilt, k.block, sums)
	} else {
		op.packFailed = err
	}
	p.packMu.Lock()
	delete(p.pending, k.block)
	p.npending.Add(-1)
	p.packMu.Unlock()
	// The unused sectors go back as the largest aligned runs they make.
	first := k.block << buddy.SectorShift
	for i := uint64(0); i < buddy.SectorsPerBlock; {
		if k.taken&(1<<i) != 0 {
			i++
			continue
		}
		n := uint64(1)
		for i%(2*n) == 0 && i+2*n <= buddy.SectorsPerBlock && k.taken&uint8((1<<(2*n)-1)<<i) == 0 {
			n *= 2
		}
		if ferr := k.s.a.FreeSectors(first+i, n); err == nil {
			err = ferr
		}
		i += n
	}
	return err
}

// readPending copies into dst the bytes at byte off of block, if block is
// a pack an open operation is still filling, and reports whether it was.
func (p *Pager) readPending(block uint64, off int, dst []byte) bool {
	if p.npending.Load() == 0 {
		return false
	}
	p.packMu.Lock()
	defer p.packMu.Unlock()
	buf, ok := p.pending[block]
	if ok {
		copy(dst, buf[off:])
	}
	return ok
}
