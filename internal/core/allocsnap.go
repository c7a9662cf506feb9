package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/buddy"
	"repro/internal/redo"
)

// The allocator snapshot region holds two slots, one per half. Every
// checkpoint — and Close, and Create — writes the allocator as it will be
// once that checkpoint has released limbo into the slot the current log
// generation is NOT relying on, stamped with the LSN fence the log is
// about to be reset behind; only then is the log reset. Open trusts the
// slot whose stamp equals the fence in the log header, and replays the
// log tail's redo.KindAlloc records onto it:
//
//   - power cut after the slot write, before the log reset: the log still
//     carries the old fence, so the older slot is picked and the whole old
//     generation replays onto it;
//   - slot torn mid-write: its CRC fails, the other slot still belongs to
//     the log generation on the device;
//   - neither slot valid for the log's fence — torn, wiped because the
//     snapshot outgrew a slot, or wiped by a session that logs no
//     allocations: nothing on the device vouches for the allocator, and
//     Open rebuilds it by the reachability walk.
//
// Slot layout (little-endian), starting at the slot's first block:
//
//	[0:4]   magic
//	[4:8]   CRC32C of bytes [8:32+length]
//	[8:16]  sequence number (ties between equal stamps go to the larger)
//	[16:24] LSN fence stamp
//	[24:32] payload length
//	[32:]   buddy.Allocator.SnapshotReleased payload
const (
	slotMagic   = 0x68464153 // "hFAS"
	slotHdrSize = 32
)

// allocSlot is one decoded, CRC-valid snapshot slot.
type allocSlot struct {
	seq, lsn uint64
	payload  []byte
}

func (v *Volume) slotBlocks() uint64 { return v.snapBlocks / 2 }

// readAllocSlot decodes slot idx, reporting ok == false for a slot that
// was never written, was wiped, or fails its CRC.
func (v *Volume) readAllocSlot(idx int) (allocSlot, bool, error) {
	bs := uint64(v.raw.BlockSize())
	start := v.snapStart + uint64(idx)*v.slotBlocks()
	buf := make([]byte, bs)
	if err := v.raw.ReadBlock(start, buf); err != nil {
		return allocSlot{}, false, err
	}
	n := binary.LittleEndian.Uint64(buf[24:])
	if binary.LittleEndian.Uint32(buf[0:]) != slotMagic || n > v.slotBlocks()*bs || slotHdrSize+n > v.slotBlocks()*bs {
		return allocSlot{}, false, nil
	}
	body := make([]byte, 0, slotHdrSize+n)
	body = append(body, buf[:min(int(slotHdrSize+n), int(bs))]...)
	for blk := start + 1; uint64(len(body)) < slotHdrSize+n; blk++ {
		if err := v.raw.ReadBlock(blk, buf); err != nil {
			return allocSlot{}, false, err
		}
		body = append(body, buf[:min(int(slotHdrSize+n)-len(body), int(bs))]...)
	}
	if crc32.Checksum(body[8:], crcTable) != binary.LittleEndian.Uint32(body[4:]) {
		return allocSlot{}, false, nil
	}
	return allocSlot{
		seq:     binary.LittleEndian.Uint64(body[8:]),
		lsn:     binary.LittleEndian.Uint64(body[16:]),
		payload: body[slotHdrSize:],
	}, true, nil
}

// loadAllocSlots reads both slots, remembers the sequence high-water for
// the next write, and returns the payload of the newest slot that passes
// want (nil if none), setting snapCur to its index.
func (v *Volume) loadAllocSlots(want func(allocSlot) bool) ([]byte, uint64, error) {
	v.snapCur = -1
	var best allocSlot
	for idx := 0; idx < 2; idx++ {
		s, ok, err := v.readAllocSlot(idx)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			continue
		}
		if s.seq > v.snapSeq {
			v.snapSeq = s.seq
		}
		if want(s) && (v.snapCur < 0 || s.seq > best.seq) {
			best, v.snapCur = s, idx
		}
	}
	return best.payload, best.lsn, nil
}

// writeAllocSlot persists the allocator, as releasing limbo will leave
// it, stamped with lsn, into the slot the current log generation does not
// depend on. It returns that slot's index; the caller makes it current
// (snapCur) once the log has been reset behind the same fence.
//
// The payload costs 8 bytes per free chunk, so free space fragmented past
// what a slot holds (about 16 000 isolated runs in the default 32 blocks)
// does not fit. That must not fail the checkpoint — the log could then
// never be reset and the volume never reopened. Both slots are wiped
// instead and -1 returned: nothing on the device then vouches for the
// allocator, a crash in the coming generation recovers it by the walk,
// and the first checkpoint whose payload fits writes a slot again.
func (v *Volume) writeAllocSlot(lsn uint64) (int, error) {
	snap, err := v.ba.SnapshotReleased()
	if err != nil {
		return -1, err
	}
	bs := v.raw.BlockSize()
	if uint64(slotHdrSize+len(snap)) > v.slotBlocks()*uint64(bs) {
		return -1, v.wipeAllocSlots()
	}
	idx := 0
	if v.snapCur == 0 {
		idx = 1
	}
	v.snapSeq++
	body := make([]byte, (slotHdrSize+len(snap)+bs-1)/bs*bs)
	binary.LittleEndian.PutUint32(body[0:], slotMagic)
	binary.LittleEndian.PutUint64(body[8:], v.snapSeq)
	binary.LittleEndian.PutUint64(body[16:], lsn)
	binary.LittleEndian.PutUint64(body[24:], uint64(len(snap)))
	copy(body[slotHdrSize:], snap)
	binary.LittleEndian.PutUint32(body[4:], crc32.Checksum(body[8:slotHdrSize+len(snap)], crcTable))
	start := v.snapStart + uint64(idx)*v.slotBlocks()
	for i := 0; i*bs < len(body); i++ {
		if err := v.raw.WriteBlock(start+uint64(i), body[i*bs:(i+1)*bs]); err != nil {
			return -1, err
		}
	}
	return idx, nil
}

// wipeAllocSlots invalidates both slots. Formatting does it (the device
// may hold a previous volume's slots); so does every open in a mode whose
// operations stage no allocator records (SerialCommit, ImageLogging): a
// crash of such a session must find nothing it could mistake for its
// allocator; so does a checkpoint whose snapshot does not fit a slot, and
// a recovery about to roll back losers on a walked allocator (Open). The
// caller syncs before anything depends on the wipe.
func (v *Volume) wipeAllocSlots() error {
	zero := make([]byte, v.raw.BlockSize())
	for idx := uint64(0); idx < 2; idx++ {
		if err := v.raw.WriteBlock(v.snapStart+idx*v.slotBlocks(), zero); err != nil {
			return err
		}
	}
	v.snapCur = -1
	return nil
}

// logsAllocations reports whether this session's operations stage
// redo.KindAlloc records — the physiological pipeline, the only one whose
// checkpoints may leave a slot for a crashed open to trust.
func (v *Volume) logsAllocations() bool {
	return v.log != nil && !v.opts.SerialCommit && !v.opts.ImageLogging
}

// allocRec is one redo.KindAlloc record of the log tail.
type allocRec struct {
	free    bool
	addr, n uint64
}

func decodeAllocRec(r redo.Record) (allocRec, error) {
	free, n, err := redo.DecodeAlloc(r.Data)
	if err != nil {
		return allocRec{}, fmt.Errorf("%w: %v", ErrBadSuperblock, err)
	}
	return allocRec{free: free, addr: r.Page, n: n}, nil
}

// replayAllocator rebuilds the allocator from a slot payload plus the
// tail's allocator records, in LSN order. Frees are applied for real, not
// parked: recovery ends in a checkpoint, and until then nothing but
// recovery's own undo pass allocates — the same standing the walk gives a
// block no replayed structure reaches.
func replayAllocator(payload []byte, tail []allocRec) (*buddy.Allocator, error) {
	ba, err := buddy.Restore(payload)
	if err != nil {
		return nil, err
	}
	for _, r := range tail {
		if r.free {
			err = ba.Free(r.addr, r.n)
		} else {
			err = ba.AllocAt(r.addr, r.n)
		}
		if err != nil {
			return nil, err
		}
	}
	return ba, nil
}
