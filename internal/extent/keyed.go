package extent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/btree"
	"repro/internal/buddy"
	"repro/internal/pager"
)

// KeyedMap is the paper's literal extent-map sketch: a B-tree "whose keys
// are file offsets where extents begin and whose data items are the disk
// addresses and lengths corresponding to those offsets".
//
// It exists as the ablation for experiment E7: with offsets as keys, a
// middle-of-object insert must renumber the key of every subsequent
// extent, making insert O(extents) instead of the counted tree's
// O(log extents). Reads and appends perform identically to the counted
// tree; only insert/delete-range diverge. The implementation reuses the
// general-purpose btree substrate, exactly as the paper reuses Berkeley DB.
type KeyedMap struct {
	tr  *btree.Tree
	ba  *buddy.Allocator
	pg  *pager.Pager
	bs  uint64
	cfg Config

	mu   sync.RWMutex
	size uint64

	// RenumberedKeys counts key rewrites forced by inserts/deletes — the
	// quantity the counted tree eliminates.
	renumbered int64
}

// NewKeyedMap creates an empty offset-keyed extent map.
func NewKeyedMap(pg *pager.Pager, ba *buddy.Allocator, cfg Config) (*KeyedMap, error) {
	cfg.Fill(pg.BlockSize())
	tr, err := btree.Create(pg, ba)
	if err != nil {
		return nil, err
	}
	return &KeyedMap{tr: tr, ba: ba, pg: pg, bs: uint64(pg.BlockSize()), cfg: cfg}, nil
}

// Size returns the object's logical size.
func (m *KeyedMap) Size() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.size
}

// RenumberedKeys reports how many extent keys have been rewritten by
// inserts and range deletes.
func (m *KeyedMap) RenumberedKeys() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.renumbered
}

func encodeOffset(off uint64) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], off) // big-endian sorts numerically
	return k[:]
}

func decodeOffset(k []byte) uint64 { return binary.BigEndian.Uint64(k) }

func encodeExtentVal(e Extent) []byte {
	var v [16]byte
	binary.LittleEndian.PutUint64(v[:], e.Alloc)
	binary.LittleEndian.PutUint32(v[8:], e.AllocBlocks)
	binary.LittleEndian.PutUint32(v[12:], e.Len)
	return v[:]
}

func decodeExtentVal(v []byte) Extent {
	return Extent{
		Alloc:       binary.LittleEndian.Uint64(v),
		AllocBlocks: binary.LittleEndian.Uint32(v[8:]),
		Len:         binary.LittleEndian.Uint32(v[12:]),
	}
}

// Append adds p at the end of the object.
func (m *KeyedMap) Append(p []byte) error {
	return m.AppendOp(nil, p)
}

// AppendOp is Append capturing btree-page mutations into op's redo set
// (the keyed map reuses the general btree substrate, so its records are
// the btree's typed ops rather than extent ops).
func (m *KeyedMap) AppendOp(op *pager.Op, p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appendLocked(op, p)
}

func (m *KeyedMap) appendLocked(op *pager.Op, p []byte) error {
	for len(p) > 0 {
		chunk := len(p)
		if chunk > int(m.cfg.MaxExtentBytes) {
			chunk = int(m.cfg.MaxExtentBytes)
		}
		e, err := m.allocAndWrite(p[:chunk])
		if err != nil {
			return err
		}
		if err := m.tr.PutOp(op, encodeOffset(m.size), encodeExtentVal(e)); err != nil {
			return err
		}
		m.size += uint64(chunk)
		p = p[chunk:]
	}
	return nil
}

// ReadAt reads into p at offset off, mirroring Tree.ReadAt semantics.
func (m *KeyedMap) ReadAt(p []byte, off uint64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if off >= m.size {
		return 0, io.EOF
	}
	n := len(p)
	eof := false
	if off+uint64(n) >= m.size {
		n = int(m.size - off)
		eof = true
	}
	type span struct {
		start uint64
		e     Extent
	}
	var spans []span
	// Find the extent containing off (greatest key ≤ off), then scan
	// forward across the covered range.
	fk, _, err := m.tr.Floor(encodeOffset(off))
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return 0, fmt.Errorf("%w: no extent at %d", ErrCorrupt, off)
		}
		return 0, err
	}
	err = m.tr.Scan(fk, encodeOffset(off+uint64(n)), func(k, v []byte) bool {
		start := decodeOffset(k)
		e := decodeExtentVal(v)
		if start+uint64(e.Len) <= off {
			return true // floor extent may end before off only if sparse gap
		}
		spans = append(spans, span{start, e})
		return true
	})
	if err != nil {
		return 0, err
	}
	done := 0
	for _, s := range spans {
		var eOff uint64
		if off+uint64(done) > s.start {
			eOff = off + uint64(done) - s.start
		}
		mlen := int(uint64(s.e.Len) - eOff)
		if mlen > n-done {
			mlen = n - done
		}
		dst := p[done : done+mlen]
		if s.e.IsHole() {
			for i := range dst {
				dst[i] = 0
			}
		} else if err := readRun(m.pg.Device(), s.e, eOff, dst); err != nil {
			return done, err
		}
		done += mlen
	}
	if done < n {
		return done, fmt.Errorf("%w: keyed map gap at %d", ErrCorrupt, done)
	}
	if eof {
		return n, io.EOF
	}
	return n, nil
}

// InsertAt inserts p at offset off. This is the operation the offset-keyed
// design makes expensive: every extent at or after off must have its key
// renumbered by len(p).
func (m *KeyedMap) InsertAt(off uint64, p []byte) error {
	return m.InsertAtOp(nil, off, p)
}

// InsertAtOp is InsertAt capturing btree-page mutations into op's redo
// set.
func (m *KeyedMap) InsertAtOp(op *pager.Op, off uint64, p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off > m.size {
		return fmt.Errorf("%w: insert at %d, size %d", ErrOutOfRange, off, m.size)
	}
	if len(p) == 0 {
		return nil
	}
	if off == m.size {
		return m.appendLocked(op, p)
	}
	if err := m.splitBoundary(op, off); err != nil {
		return err
	}
	// Collect every extent with key >= off (they all shift).
	type kv struct {
		start uint64
		e     Extent
	}
	var tail []kv
	if err := m.tr.Scan(encodeOffset(off), nil, func(k, v []byte) bool {
		tail = append(tail, kv{decodeOffset(k), decodeExtentVal(v)})
		return true
	}); err != nil {
		return err
	}
	shift := uint64(len(p))
	// Renumber back to front so keys never collide.
	for i := len(tail) - 1; i >= 0; i-- {
		if err := m.tr.DeleteOp(op, encodeOffset(tail[i].start)); err != nil {
			return err
		}
		if err := m.tr.PutOp(op, encodeOffset(tail[i].start+shift), encodeExtentVal(tail[i].e)); err != nil {
			return err
		}
		m.renumbered++
	}
	// Insert the new data extents at [off, off+len(p)).
	cur := off
	rest := p
	for len(rest) > 0 {
		chunk := len(rest)
		if chunk > int(m.cfg.MaxExtentBytes) {
			chunk = int(m.cfg.MaxExtentBytes)
		}
		e, err := m.allocAndWrite(rest[:chunk])
		if err != nil {
			return err
		}
		if err := m.tr.PutOp(op, encodeOffset(cur), encodeExtentVal(e)); err != nil {
			return err
		}
		cur += uint64(chunk)
		rest = rest[chunk:]
	}
	m.size += shift
	return nil
}

// DeleteRange removes n bytes at off; all later extents renumber down.
func (m *KeyedMap) DeleteRange(off, n uint64) error {
	return m.DeleteRangeOp(nil, off, n)
}

// DeleteRangeOp is DeleteRange capturing btree-page mutations into op's
// redo set.
func (m *KeyedMap) DeleteRangeOp(op *pager.Op, off, n uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= m.size || n == 0 {
		return nil
	}
	if off+n > m.size {
		n = m.size - off
	}
	if err := m.splitBoundary(op, off); err != nil {
		return err
	}
	if err := m.splitBoundary(op, off+n); err != nil {
		return err
	}
	type kv struct {
		start uint64
		e     Extent
	}
	var doomed, tail []kv
	if err := m.tr.Scan(encodeOffset(off), nil, func(k, v []byte) bool {
		start := decodeOffset(k)
		e := decodeExtentVal(v)
		if start < off+n {
			doomed = append(doomed, kv{start, e})
		} else {
			tail = append(tail, kv{start, e})
		}
		return true
	}); err != nil {
		return err
	}
	for _, d := range doomed {
		if err := m.tr.DeleteOp(op, encodeOffset(d.start)); err != nil {
			return err
		}
		if !d.e.IsHole() {
			if err := m.ba.Free(d.e.Alloc, uint64(d.e.AllocBlocks)); err != nil {
				return err
			}
		}
	}
	for _, s := range tail { // front to back: keys only decrease
		if err := m.tr.DeleteOp(op, encodeOffset(s.start)); err != nil {
			return err
		}
		if err := m.tr.PutOp(op, encodeOffset(s.start-n), encodeExtentVal(s.e)); err != nil {
			return err
		}
		m.renumbered++
	}
	m.size -= n
	return nil
}

// splitBoundary ensures an extent boundary at off, copying the tail of a
// split extent into a fresh allocation (same policy as the counted tree).
func (m *KeyedMap) splitBoundary(op *pager.Op, off uint64) error {
	if off == 0 || off >= m.size {
		return nil
	}
	fk, fv, err := m.tr.Floor(encodeOffset(off))
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return nil
		}
		return err
	}
	start := decodeOffset(fk)
	e := decodeExtentVal(fv)
	if start == off || start+uint64(e.Len) <= off {
		return nil
	}
	k := off - start
	rightLen := uint64(e.Len) - k
	var right Extent
	if e.IsHole() {
		right = Extent{Len: uint32(rightLen)}
	} else {
		blocks := (rightLen + m.bs - 1) / m.bs
		alloc, err := m.ba.Alloc(blocks)
		if err != nil {
			return err
		}
		buf := make([]byte, rightLen)
		if err := readRun(m.pg.Device(), e, k, buf); err != nil {
			return err
		}
		right = Extent{Alloc: alloc, AllocBlocks: uint32(buddy.RoundUp(blocks)), Len: uint32(rightLen)}
		if _, err := writeRun(m.pg.Device(), right, 0, 0, buf); err != nil {
			return err
		}
	}
	e.Len = uint32(k)
	if err := m.tr.PutOp(op, encodeOffset(start), encodeExtentVal(e)); err != nil {
		return err
	}
	return m.tr.PutOp(op, encodeOffset(off), encodeExtentVal(right))
}

func (m *KeyedMap) allocAndWrite(p []byte) (Extent, error) {
	blocks := (uint64(len(p)) + m.bs - 1) / m.bs
	alloc, err := m.ba.Alloc(blocks)
	if err != nil {
		return Extent{}, err
	}
	e := Extent{Alloc: alloc, AllocBlocks: uint32(buddy.RoundUp(blocks)), Len: uint32(len(p))}
	if _, err := writeRun(m.pg.Device(), e, 0, 0, p); err != nil {
		return Extent{}, err
	}
	return e, nil
}
