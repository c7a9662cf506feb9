package btree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pager"
	"repro/internal/redo"
)

// Overflow page layout: common header byte 0 = pageOverflow, bytes [2:4]
// hold the used-byte count, [8:16] the next page in the chain (0 = end),
// and payload starts at ovfDataOff.
const ovfDataOff = 16

func ovfCapacity(blockSize int) int { return blockSize - ovfDataOff }

// fillOverflow formats the zeroed page d as an overflow page holding
// chunk and chained to next (0 = the end), and returns the bytes it set.
func fillOverflow(d, chunk []byte, next uint64) []byte {
	d[offType] = pageOverflow
	binary.LittleEndian.PutUint16(d[2:], uint16(len(chunk)))
	binary.LittleEndian.PutUint64(d[offPtrA:], next)
	copy(d[ovfDataOff:], chunk)
	return d[:ovfDataOff+len(chunk)]
}

// writeOverflow spills val into a chain of overflow pages, returning the
// first page number. Overflow pages are fresh and single-writer, so
// their redo records are plain byte ranges covering exactly the header
// and content written.
func (t *Tree) writeOverflow(op *pager.Op, val []byte) (uint64, error) {
	if len(val) == 0 {
		return 0, fmt.Errorf("btree: empty overflow value")
	}
	capacity := ovfCapacity(t.pg.BlockSize())
	var first, prev uint64
	for off := 0; off < len(val); off += capacity {
		end := off + capacity
		if end > len(val) {
			end = len(val)
		}
		pno, err := t.space.Alloc(op, 1)
		if err != nil {
			if first != 0 {
				_ = t.freeOverflow(op, first) // release partial chain
			}
			return 0, err
		}
		err = t.pg.WithZero(pno, func(pg *pager.Page) error {
			set := fillOverflow(pg.Data(), val[off:end], 0)
			t.pg.MarkDirtyRec(pg, op, redo.KindRange, redo.EncodeRange(0, append([]byte(nil), set...)))
			return nil
		})
		if err != nil {
			return 0, err
		}
		if prev != 0 {
			err := t.pg.With(prev, func(ppg *pager.Page) error {
				binary.LittleEndian.PutUint64(ppg.Data()[offPtrA:], pno)
				t.pg.MarkDirtyRec(ppg, op, redo.KindRange, redo.EncodeRange(offPtrA, u64b(pno)))
				return nil
			})
			if err != nil {
				return 0, err
			}
		} else {
			first = pno
		}
		prev = pno
	}
	return first, nil
}

// readOverflow reassembles a value of totalLen bytes from the chain
// starting at pno.
func (t *Tree) readOverflow(pno uint64, totalLen uint64) ([]byte, error) {
	out := make([]byte, 0, totalLen)
	for pno != 0 {
		err := t.pg.With(pno, func(pg *pager.Page) error {
			d := pg.Data()
			if d[offType] != pageOverflow {
				return fmt.Errorf("%w: page %d not overflow", ErrCorrupt, pno)
			}
			used := int(binary.LittleEndian.Uint16(d[2:]))
			if used > len(d)-ovfDataOff {
				return fmt.Errorf("%w: overflow used %d too large", ErrCorrupt, used)
			}
			out = append(out, d[ovfDataOff:ovfDataOff+used]...)
			pno = binary.LittleEndian.Uint64(d[offPtrA:])
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if uint64(len(out)) != totalLen {
		return nil, fmt.Errorf("%w: overflow chain length %d, want %d", ErrCorrupt, len(out), totalLen)
	}
	return out, nil
}

// freeOverflow releases the chain starting at pno.
func (t *Tree) freeOverflow(op *pager.Op, pno uint64) error {
	chain, err := t.overflowPages(pno)
	if err != nil {
		return err
	}
	for _, p := range chain {
		if err := t.freePage(op, p); err != nil {
			return err
		}
	}
	return nil
}

// overflowPages lists the chain starting at pno.
func (t *Tree) overflowPages(pno uint64) ([]uint64, error) {
	var chain []uint64
	for pno != 0 {
		chain = append(chain, pno)
		err := t.pg.With(pno, func(pg *pager.Page) error {
			pno = binary.LittleEndian.Uint64(pg.Data()[offPtrA:])
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return chain, nil
}
