package hierfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/pager"
)

// ptrsPerBlock is the number of block pointers an indirect block holds.
func (f *FS) ptrsPerBlock() uint64 { return uint64(f.dev.BlockSize()) / 8 }

// maxFileBlocks is the largest file in blocks (direct + single + double).
func (f *FS) maxFileBlocks() uint64 {
	p := f.ptrsPerBlock()
	return ndirect + p + p*p
}

// bmap maps file block fb of inode in to a physical block. With allocate
// set, missing blocks (and indirect blocks) are allocated; otherwise 0 is
// returned for holes. The caller holds the inode's lock and is
// responsible for writing the inode back if it changed (returned flag).
func (f *FS) bmap(ino uint64, in *inode, fb uint64, allocate bool) (phys uint64, inodeDirty bool, err error) {
	group := uint64(in.Group)
	p := f.ptrsPerBlock()
	switch {
	case fb < ndirect:
		if in.Direct[fb] == 0 && allocate {
			blk, err := f.allocBlock(group)
			if err != nil {
				return 0, false, err
			}
			if err := f.zeroBlock(blk); err != nil {
				return 0, false, err
			}
			in.Direct[fb] = blk
			return blk, true, nil
		}
		return in.Direct[fb], false, nil

	case fb < ndirect+p:
		idx := fb - ndirect
		if in.Indirect == 0 {
			if !allocate {
				return 0, false, nil
			}
			blk, err := f.allocBlock(group)
			if err != nil {
				return 0, false, err
			}
			if err := f.zeroBlock(blk); err != nil {
				return 0, false, err
			}
			in.Indirect = blk
			inodeDirty = true
		}
		f.addStat(func(s *Stats) { s.IndirectHops++ })
		phys, err := f.ptrAt(in.Indirect, idx, group, allocate)
		return phys, inodeDirty, err

	case fb < f.maxFileBlocks():
		idx := fb - ndirect - p
		if in.DIndirect == 0 {
			if !allocate {
				return 0, false, nil
			}
			blk, err := f.allocBlock(group)
			if err != nil {
				return 0, false, err
			}
			if err := f.zeroBlock(blk); err != nil {
				return 0, false, err
			}
			in.DIndirect = blk
			inodeDirty = true
		}
		f.addStat(func(s *Stats) { s.IndirectHops++ })
		l1, err := f.ptrAt(in.DIndirect, idx/p, group, allocate)
		if err != nil {
			return 0, inodeDirty, err
		}
		if l1 == 0 {
			return 0, inodeDirty, nil
		}
		f.addStat(func(s *Stats) { s.IndirectHops++ })
		phys, err := f.ptrAt(l1, idx%p, group, allocate)
		return phys, inodeDirty, err

	default:
		return 0, false, ErrFileTooBig
	}
}

// ptrAt reads (and with allocate, fills) slot idx of an indirect block.
func (f *FS) ptrAt(blk, idx, group uint64, allocate bool) (uint64, error) {
	var v uint64
	err := f.pg.With(blk, func(pg *pager.Page) error {
		if v = binary.LittleEndian.Uint64(pg.Data()[idx*8:]); v != 0 || !allocate {
			return nil
		}
		nb, err := f.allocBlock(group)
		if err != nil {
			return err
		}
		if err := f.zeroBlock(nb); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(pg.Data()[idx*8:], nb)
		f.pg.MarkDirty(pg)
		v = nb
		return nil
	})
	return v, err
}

func (f *FS) zeroBlock(blk uint64) error {
	return f.dev.WriteBlock(blk, make([]byte, f.dev.BlockSize()))
}

// readInodeData reads len(p) bytes at off from the inode's data,
// zero-filling holes; short reads at EOF return io.EOF. Caller holds at
// least a read lock on the inode. Directory data goes through the buffer
// cache (as the real FFS buffer cache does); regular-file data reads the
// device directly.
func (f *FS) readInodeData(ino uint64, in *inode, p []byte, off uint64) (int, error) {
	if off >= in.Size {
		return 0, io.EOF
	}
	n := len(p)
	eof := false
	if off+uint64(n) >= in.Size {
		n = int(in.Size - off)
		eof = true
	}
	cached := in.Mode&ModeDir != 0
	bs := uint64(f.dev.BlockSize())
	buf := make([]byte, bs)
	done := 0
	for done < n {
		fb := (off + uint64(done)) / bs
		bo := (off + uint64(done)) % bs
		phys, _, err := f.bmap(ino, in, fb, false)
		if err != nil {
			return done, err
		}
		m := int(bs - bo)
		if m > n-done {
			m = n - done
		}
		switch {
		case phys == 0:
			for i := 0; i < m; i++ {
				p[done+i] = 0
			}
		case cached:
			err := f.pg.With(phys, func(pg *pager.Page) error {
				copy(p[done:done+m], pg.Data()[bo:])
				return nil
			})
			if err != nil {
				return done, err
			}
		default:
			if err := f.dev.ReadBlock(phys, buf); err != nil {
				return done, err
			}
			copy(p[done:done+m], buf[bo:])
		}
		done += m
	}
	if eof {
		return n, io.EOF
	}
	return n, nil
}

// writeInodeData writes p at off, allocating blocks and growing Size as
// needed. Caller holds the inode's write lock; the inode is written back.
// Directory data is written through the buffer cache; file data goes to
// the device directly.
func (f *FS) writeInodeData(ino uint64, in *inode, p []byte, off uint64) error {
	cached := in.Mode&ModeDir != 0
	bs := uint64(f.dev.BlockSize())
	buf := make([]byte, bs)
	done := 0
	for done < len(p) {
		fb := (off + uint64(done)) / bs
		bo := (off + uint64(done)) % bs
		phys, _, err := f.bmap(ino, in, fb, true)
		if err != nil {
			return err
		}
		m := int(bs - bo)
		if m > len(p)-done {
			m = len(p) - done
		}
		switch {
		case cached:
			err := f.pg.With(phys, func(pg *pager.Page) error {
				copy(pg.Data()[bo:], p[done:done+m])
				f.pg.MarkDirty(pg)
				return nil
			})
			if err != nil {
				return err
			}
		case bo == 0 && m == int(bs):
			if err := f.dev.WriteBlock(phys, p[done:done+int(bs)]); err != nil {
				return err
			}
		default:
			if err := f.dev.ReadBlock(phys, buf); err != nil {
				return err
			}
			copy(buf[bo:], p[done:done+m])
			if err := f.dev.WriteBlock(phys, buf); err != nil {
				return err
			}
		}
		done += m
	}
	end := off + uint64(len(p))
	if end > in.Size {
		in.Size = end
	}
	in.Mtime = f.clock().UnixNano()
	return f.writeInode(ino, in)
}

// truncateInode shrinks (or grows, with a hole) the inode to size.
// End-only, as POSIX truncate: the comparison point for hFAD's
// truncate-anywhere. Caller holds the write lock.
func (f *FS) truncateInode(ino uint64, in *inode, size uint64) error {
	bs := uint64(f.dev.BlockSize())
	if size >= in.Size {
		in.Size = size
		in.Mtime = f.clock().UnixNano()
		return f.writeInode(ino, in)
	}
	// Free whole blocks past the new end.
	keep := (size + bs - 1) / bs
	old := (in.Size + bs - 1) / bs
	p := f.ptrsPerBlock()
	for fb := keep; fb < old; fb++ {
		phys, _, err := f.bmap(ino, in, fb, false)
		if err != nil {
			return err
		}
		if phys != 0 {
			if err := f.freeBlock(phys); err != nil {
				return err
			}
			if err := f.clearPtr(in, fb); err != nil {
				return err
			}
		}
	}
	// Free indirect blocks that became empty.
	if keep <= ndirect && in.Indirect != 0 {
		if err := f.freeBlock(in.Indirect); err != nil {
			return err
		}
		in.Indirect = 0
	}
	if keep <= ndirect+p && in.DIndirect != 0 {
		// Free any level-1 blocks then the double-indirect root.
		var l1s []uint64
		err := f.pg.With(in.DIndirect, func(pg *pager.Page) error {
			for i := uint64(0); i < p; i++ {
				if v := binary.LittleEndian.Uint64(pg.Data()[i*8:]); v != 0 {
					l1s = append(l1s, v)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, l1 := range l1s {
			if err := f.freeBlock(l1); err != nil {
				return err
			}
		}
		if err := f.freeBlock(in.DIndirect); err != nil {
			return err
		}
		in.DIndirect = 0
	}
	in.Size = size
	in.Mtime = f.clock().UnixNano()
	return f.writeInode(ino, in)
}

// clearPtr zeroes the pointer slot for file block fb.
func (f *FS) clearPtr(in *inode, fb uint64) error {
	pp := f.ptrsPerBlock()
	switch {
	case fb < ndirect:
		in.Direct[fb] = 0
		return nil
	case fb < ndirect+pp:
		if in.Indirect == 0 {
			return nil
		}
		return f.zeroPtrAt(in.Indirect, fb-ndirect)
	default:
		if in.DIndirect == 0 {
			return nil
		}
		idx := fb - ndirect - pp
		l1, err := f.ptrAt(in.DIndirect, idx/pp, 0, false)
		if err != nil || l1 == 0 {
			return err
		}
		return f.zeroPtrAt(l1, idx%pp)
	}
}

func (f *FS) zeroPtrAt(blk, idx uint64) error {
	return f.pg.With(blk, func(pg *pager.Page) error {
		binary.LittleEndian.PutUint64(pg.Data()[idx*8:], 0)
		f.pg.MarkDirty(pg)
		return nil
	})
}

// freeInodeData releases all blocks of an inode (for unlink).
func (f *FS) freeInodeData(ino uint64, in *inode) error {
	if err := f.truncateInode(ino, in, 0); err != nil {
		return err
	}
	in.Mode = 0
	in.Nlink = 0
	f.allocMu.Lock()
	if ino < f.inoHint {
		f.inoHint = ino
	}
	f.allocMu.Unlock()
	return f.writeInode(ino, in)
}

// --- public file data API (path-based) ---

// ReadAt reads from the file at path.
func (f *FS) ReadAt(path string, p []byte, off uint64) (int, error) {
	ino, err := f.Lookup(path)
	if err != nil {
		return 0, err
	}
	return f.ReadAtIno(ino, p, off)
}

// ReadAtIno reads from an already-resolved inode.
func (f *FS) ReadAtIno(ino uint64, p []byte, off uint64) (int, error) {
	f.rlockIno(ino)
	defer f.ilocks[ino].RUnlock()
	in, err := f.readInode(ino)
	if err != nil {
		return 0, err
	}
	if in.Mode&ModeDir != 0 {
		return 0, fmt.Errorf("inode %d: %w", ino, ErrIsDir)
	}
	return f.readInodeData(ino, in, p, off)
}

// WriteAt writes to the file at path, extending it as needed.
func (f *FS) WriteAt(path string, p []byte, off uint64) error {
	ino, err := f.Lookup(path)
	if err != nil {
		return err
	}
	return f.WriteAtIno(ino, p, off)
}

// WriteAtIno writes to an already-resolved inode.
func (f *FS) WriteAtIno(ino uint64, p []byte, off uint64) error {
	f.lockIno(ino)
	defer f.ilocks[ino].Unlock()
	in, err := f.readInode(ino)
	if err != nil {
		return err
	}
	if in.Mode&ModeDir != 0 {
		return fmt.Errorf("inode %d: %w", ino, ErrIsDir)
	}
	return f.writeInodeData(ino, in, p, off)
}

// Truncate sets the file's size (end-only POSIX semantics).
func (f *FS) Truncate(path string, size uint64) error {
	ino, err := f.Lookup(path)
	if err != nil {
		return err
	}
	f.lockIno(ino)
	defer f.ilocks[ino].Unlock()
	in, err := f.readInode(ino)
	if err != nil {
		return err
	}
	if in.Mode&ModeDir != 0 {
		return fmt.Errorf("%s: %w", path, ErrIsDir)
	}
	return f.truncateInode(ino, in, size)
}

// InsertAt inserts p into the middle of the file by reading everything
// after off, rewriting it shifted, and growing the file: the O(n) cost a
// hierarchical file system pays for the operation hFAD's extent trees get
// in O(log n). ShiftBytes accounts the movement for the experiments.
func (f *FS) InsertAt(path string, off uint64, p []byte) error {
	ino, err := f.Lookup(path)
	if err != nil {
		return err
	}
	f.lockIno(ino)
	defer f.ilocks[ino].Unlock()
	in, err := f.readInode(ino)
	if err != nil {
		return err
	}
	if in.Mode&ModeDir != 0 {
		return fmt.Errorf("%s: %w", path, ErrIsDir)
	}
	if off > in.Size {
		return fmt.Errorf("%s: insert beyond EOF: %w", path, ErrInvalid)
	}
	tailLen := in.Size - off
	tail := make([]byte, tailLen)
	if tailLen > 0 {
		if _, err := f.readInodeData(ino, in, tail, off); err != nil && !errors.Is(err, io.EOF) {
			return err
		}
	}
	if err := f.writeInodeData(ino, in, p, off); err != nil {
		return err
	}
	if tailLen > 0 {
		if err := f.writeInodeData(ino, in, tail, off+uint64(len(p))); err != nil {
			return err
		}
	}
	f.addStat(func(s *Stats) { s.ShiftBytes += int64(tailLen) })
	return nil
}

// DeleteRangeAt removes n bytes at off by shifting the tail down and
// truncating — again O(n), the baseline for hFAD's truncate(offset, len).
func (f *FS) DeleteRangeAt(path string, off, n uint64) error {
	ino, err := f.Lookup(path)
	if err != nil {
		return err
	}
	f.lockIno(ino)
	defer f.ilocks[ino].Unlock()
	in, err := f.readInode(ino)
	if err != nil {
		return err
	}
	if off >= in.Size || n == 0 {
		return nil
	}
	if off+n > in.Size {
		n = in.Size - off
	}
	tailLen := in.Size - off - n
	if tailLen > 0 {
		tail := make([]byte, tailLen)
		if _, err := f.readInodeData(ino, in, tail, off+n); err != nil && !errors.Is(err, io.EOF) {
			return err
		}
		if err := f.writeInodeData(ino, in, tail, off); err != nil {
			return err
		}
		f.addStat(func(s *Stats) { s.ShiftBytes += int64(tailLen) })
	}
	return f.truncateInode(ino, in, in.Size-n)
}

func (f *FS) rlockIno(ino uint64) {
	f.addStat(func(s *Stats) { s.LockAcquires++ })
	f.ilocks[ino].RLock()
}

func (f *FS) lockIno(ino uint64) {
	f.addStat(func(s *Stats) { s.LockAcquires++ })
	f.ilocks[ino].Lock()
}
