package pager

import (
	"encoding/binary"
	"sync"

	"repro/internal/blockdev"
	"repro/internal/redo"
)

// Object data — the bytes an object's extents hold — reaches the device
// through ReadData and WriteData, byte-addressed, and never sits in a
// cache frame: a document is read once per request and written once per
// write, so a frame would be filled only to be evicted next.

// blockBufs recycles the scratch block a partial-block read or write goes
// through. Readers of one object share only its tree's read lock, so one
// buffer per tree would race; a pool gives each concurrent read its own
// without allocating.
var blockBufs sync.Pool // of *[]byte

// blockBuf takes a block-sized scratch buffer from blockBufs; give it
// back with blockBufs.Put.
func blockBuf(bs int) *[]byte {
	bp, _ := blockBufs.Get().(*[]byte)
	if bp == nil || len(*bp) != bs {
		b := make([]byte, bs)
		bp = &b
	}
	return bp
}

// ReadData reads len(dst) bytes of object data from device byte address
// at. A slot of a pack an open operation is still filling is read from
// the pack's buffer (Space.Slot).
func (p *Pager) ReadData(at uint64, dst []byte) error {
	bs := p.dev.BlockSize()
	var bp *[]byte
	defer func() {
		if bp != nil {
			blockBufs.Put(bp)
		}
	}()
	for len(dst) > 0 {
		blk, bo := at/uint64(bs), int(at%uint64(bs))
		if bo == 0 && len(dst) >= bs {
			if err := p.dev.ReadBlock(blk, dst[:bs]); err != nil {
				return err
			}
			dst = dst[bs:]
			at += uint64(bs)
			continue
		}
		// A slot is less than a block, so only a partial read can be one.
		n := min(len(dst), bs-bo)
		if !p.readPending(blk, bo, dst[:n]) {
			if bp == nil {
				bp = blockBuf(bs)
			}
			if err := p.dev.ReadBlock(blk, *bp); err != nil {
				return err
			}
			copy(dst[:n], (*bp)[bo:])
		}
		dst = dst[n:]
		at += uint64(n)
	}
	return nil
}

// WriteData writes data at device byte address at, straight to the
// device, and stages in op one redo.KindWrote record holding the sum of
// each block it wrote: without it nothing in the log would say what the
// blocks now hold, and recovery would hold them to the sums of the
// checkpoint before. The bytes of at's block before at are live, and so
// are those after the write up to byte address live (none when live is
// at most at+len(data)): a block the write covers only in part is read,
// modified and written back when it holds live bytes outside the write,
// and is otherwise written zero-padded, unread. Nil-safe in op
// (unlogged).
func (p *Pager) WriteData(op *Op, at, live uint64, data []byte) error {
	bs := p.dev.BlockSize()
	var bp *[]byte
	defer func() {
		if bp != nil {
			blockBufs.Put(bp)
		}
	}()
	first := at / uint64(bs)
	var sums []byte
	for len(data) > 0 {
		blk, bo := at/uint64(bs), int(at%uint64(bs))
		n := min(len(data), bs-bo)
		block := data[:n]
		if n < bs {
			if bp == nil {
				bp = blockBuf(bs)
			}
			block = *bp
			if bo > 0 || at+uint64(n) < live {
				if err := p.dev.ReadBlock(blk, block); err != nil {
					return err
				}
			} else {
				clear(block[n:])
			}
			copy(block[bo:], data[:n])
		}
		var err error
		if sums, err = p.putBlock(blk, block, sums); err != nil {
			return err
		}
		data = data[n:]
		at += uint64(n)
	}
	op.wrote(redo.KindWrote, first, sums)
	return nil
}

// putBlock writes data home to block no and returns sums with the
// block's sum appended. It is the pager's one write of a block whose
// bytes the log does not carry — object data, a pack, a built page — and
// its caller stages the sums as the write's record (Op.wrote) once the
// run is written, so no such write can leave its sum unlogged.
func (p *Pager) putBlock(no uint64, data, sums []byte) ([]byte, error) {
	if err := p.dev.WriteBlock(no, data); err != nil {
		return sums, err
	}
	return binary.LittleEndian.AppendUint32(sums, blockdev.Sum(data)), nil
}
