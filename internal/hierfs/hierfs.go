// Package hierfs is the hierarchical baseline: a deliberately faithful
// FFS-style file system (McKusick et al. 1984) against which the hFAD
// experiments compare. It exists because the paper's arguments are
// relative — fewer index traversals than a hierarchy (§2.3), no shared-
// ancestor locking (§2.3), no O(n) middle-of-file edits (§3.1.2) — so the
// repository needs the thing being argued against, built on the same
// simulated device.
//
// Faithful pieces:
//
//   - superblock, block bitmap, fixed inode table
//   - inodes with 12 direct pointers, one single-indirect, one
//     double-indirect
//   - directories as linear entry lists in file data blocks
//   - cylinder-group-preferenced allocation (an inode's blocks are placed
//     near its group, as FFS clusters directories)
//   - per-inode read/write locks: path resolution read-locks every
//     ancestor directory — the §2.3 concurrency bottleneck, measurably
//   - end-only truncate; InsertAt exists only as the honest
//     read-shift-rewrite helper the comparison needs
//
// Metadata (superblock, bitmap, inode table, directories, indirect
// blocks) goes through a pager, matching the cache hFAD's metadata gets;
// file data I/O hits the device directly, as in the hFAD OSD.
package hierfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/pager"
)

// Errors.
var (
	ErrNotExist   = errors.New("hierfs: no such file or directory")
	ErrExist      = errors.New("hierfs: file exists")
	ErrNotDir     = errors.New("hierfs: not a directory")
	ErrIsDir      = errors.New("hierfs: is a directory")
	ErrNotEmpty   = errors.New("hierfs: directory not empty")
	ErrNoSpace    = errors.New("hierfs: no space left")
	ErrNoInodes   = errors.New("hierfs: out of inodes")
	ErrFileTooBig = errors.New("hierfs: file exceeds maximum size")
	ErrInvalid    = errors.New("hierfs: invalid argument")
	ErrCorrupt    = errors.New("hierfs: corrupt filesystem")
)

// Mode bits (same values as the OSD's for easy comparison).
const (
	ModeRegular uint32 = 0o100000
	ModeDir     uint32 = 0o040000
	ModePerm    uint32 = 0o7777
)

const (
	sbMagic   = 0x46465321 // "FFS!"
	rootIno   = 1
	inodeSize = 256
	ndirect   = 12
)

// Superblock layout (block 0).
type superblock struct {
	blockSize  uint32
	nblocks    uint64
	ninodes    uint64
	itabStart  uint64
	itabBlocks uint64
	bmapStart  uint64
	bmapBlocks uint64
	dataStart  uint64
	ngroups    uint64
}

// inode is the on-disk inode, decoded.
type inode struct {
	Mode      uint32
	Nlink     uint32
	Size      uint64
	Atime     int64
	Mtime     int64
	Ctime     int64
	Direct    [ndirect]uint64
	Indirect  uint64
	DIndirect uint64
	// Group is the cylinder group this inode's blocks prefer. FFS policy:
	// directories are spread across groups; files inherit their parent
	// directory's group so a directory's files cluster together.
	Group uint32
}

// Stats counts the operations the experiments measure.
type Stats struct {
	DirLookups        int64 // path components resolved
	DirEntriesScanned int64
	InodeReads        int64
	IndirectHops      int64 // indirect-block pointer chases
	BlockAllocs       int64
	GroupHits         int64 // allocations placed in the preferred group
	ShiftBytes        int64 // bytes moved by InsertAt's read-shift-rewrite
	LockAcquires      int64 // directory locks taken during resolution
}

// Config tunes mkfs.
type Config struct {
	NInodes uint64 // default: one per 8 data blocks
	NGroups uint64 // cylinder groups (default 8)
	// Clock injects timestamps; nil = time.Now.
	Clock func() time.Time
}

// FS is an open hierarchical file system.
type FS struct {
	dev   blockdev.Device
	pg    *pager.Pager
	sb    superblock
	clock func() time.Time

	// allocMu guards the bitmap and inode allocation.
	allocMu sync.Mutex
	inoHint uint64 // next-free-inode scan hint
	// ilocks holds one lock per inode, indexed by ino. The resolution
	// path read-locks every ancestor: the hierarchical hotspot.
	ilocks []sync.RWMutex

	statMu sync.Mutex
	stats  Stats
}

// Mkfs formats the device and returns the mounted filesystem.
func Mkfs(dev blockdev.Device, cfg Config) (*FS, error) {
	bs := uint64(dev.BlockSize())
	total := dev.NumBlocks()
	if total < 64 {
		return nil, fmt.Errorf("%w: %d blocks", ErrInvalid, total)
	}
	if cfg.NGroups == 0 {
		cfg.NGroups = 8
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	// Provisional geometry: bitmap covers all blocks; inode table sized
	// from the data that remains.
	bmapBlocks := (total + bs*8 - 1) / (bs * 8)
	if cfg.NInodes == 0 {
		cfg.NInodes = total / 8
	}
	inodesPerBlock := bs / inodeSize
	itabBlocks := (cfg.NInodes + inodesPerBlock - 1) / inodesPerBlock
	sb := superblock{
		blockSize:  uint32(bs),
		nblocks:    total,
		ninodes:    cfg.NInodes,
		itabStart:  1,
		itabBlocks: itabBlocks,
		bmapStart:  1 + itabBlocks,
		bmapBlocks: bmapBlocks,
		dataStart:  1 + itabBlocks + bmapBlocks,
		ngroups:    cfg.NGroups,
	}
	if sb.dataStart+16 >= total {
		return nil, fmt.Errorf("%w: geometry leaves no data blocks", ErrInvalid)
	}
	fs := &FS{
		dev:    dev,
		pg:     pager.New(dev, 1024, true),
		sb:     sb,
		clock:  cfg.Clock,
		ilocks: make([]sync.RWMutex, cfg.NInodes+1),
	}
	if err := fs.writeSuperblock(); err != nil {
		return nil, err
	}
	// Zero the bitmap and inode table.
	zero := make([]byte, bs)
	for b := sb.itabStart; b < sb.dataStart; b++ {
		if err := dev.WriteBlock(b, zero); err != nil {
			return nil, err
		}
	}
	// Mark metadata blocks as allocated in the bitmap.
	for b := uint64(0); b < sb.dataStart; b++ {
		if err := fs.bitmapSet(b, true); err != nil {
			return nil, err
		}
	}
	// Root directory.
	now := cfg.Clock().UnixNano()
	root := inode{Mode: ModeDir | 0o755, Nlink: 2, Atime: now, Mtime: now, Ctime: now}
	if err := fs.writeInode(rootIno, &root); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount opens an existing filesystem.
func Mount(dev blockdev.Device, cfg Config) (*FS, error) {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	b := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(0, b); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(b) != sbMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	sb := superblock{
		blockSize:  binary.LittleEndian.Uint32(b[4:]),
		nblocks:    binary.LittleEndian.Uint64(b[8:]),
		ninodes:    binary.LittleEndian.Uint64(b[16:]),
		itabStart:  binary.LittleEndian.Uint64(b[24:]),
		itabBlocks: binary.LittleEndian.Uint64(b[32:]),
		bmapStart:  binary.LittleEndian.Uint64(b[40:]),
		bmapBlocks: binary.LittleEndian.Uint64(b[48:]),
		dataStart:  binary.LittleEndian.Uint64(b[56:]),
		ngroups:    binary.LittleEndian.Uint64(b[64:]),
	}
	if sb.blockSize != uint32(dev.BlockSize()) {
		return nil, fmt.Errorf("%w: block size mismatch", ErrCorrupt)
	}
	return &FS{
		dev:    dev,
		pg:     pager.New(dev, 1024, true),
		sb:     sb,
		clock:  cfg.Clock,
		ilocks: make([]sync.RWMutex, sb.ninodes+1),
	}, nil
}

func (f *FS) writeSuperblock() error {
	b := make([]byte, f.dev.BlockSize())
	binary.LittleEndian.PutUint32(b, sbMagic)
	binary.LittleEndian.PutUint32(b[4:], f.sb.blockSize)
	binary.LittleEndian.PutUint64(b[8:], f.sb.nblocks)
	binary.LittleEndian.PutUint64(b[16:], f.sb.ninodes)
	binary.LittleEndian.PutUint64(b[24:], f.sb.itabStart)
	binary.LittleEndian.PutUint64(b[32:], f.sb.itabBlocks)
	binary.LittleEndian.PutUint64(b[40:], f.sb.bmapStart)
	binary.LittleEndian.PutUint64(b[48:], f.sb.bmapBlocks)
	binary.LittleEndian.PutUint64(b[56:], f.sb.dataStart)
	binary.LittleEndian.PutUint64(b[64:], f.sb.ngroups)
	return f.dev.WriteBlock(0, b)
}

// Stats returns a snapshot of the operation counters.
func (f *FS) Stats() Stats {
	f.statMu.Lock()
	defer f.statMu.Unlock()
	return f.stats
}

// ResetStats zeroes the counters between experiment phases.
func (f *FS) ResetStats() {
	f.statMu.Lock()
	defer f.statMu.Unlock()
	f.stats = Stats{}
}

func (f *FS) addStat(fn func(*Stats)) {
	f.statMu.Lock()
	fn(&f.stats)
	f.statMu.Unlock()
}

// Sync flushes cached metadata.
func (f *FS) Sync() error {
	if err := f.pg.Sync(); err != nil {
		return err
	}
	return f.dev.Sync()
}

// --- bitmap allocation with cylinder-group preference ---

func (f *FS) bitmapSet(blk uint64, used bool) error {
	byteIdx := blk / 8
	pno := f.sb.bmapStart + byteIdx/uint64(f.dev.BlockSize())
	off := byteIdx % uint64(f.dev.BlockSize())
	return f.pg.With(pno, func(pg *pager.Page) error {
		bit := byte(1) << (blk % 8)
		if used {
			pg.Data()[off] |= bit
		} else {
			pg.Data()[off] &^= bit
		}
		f.pg.MarkDirty(pg)
		return nil
	})
}

func (f *FS) bitmapGet(blk uint64) (bool, error) {
	byteIdx := blk / 8
	pno := f.sb.bmapStart + byteIdx/uint64(f.dev.BlockSize())
	off := byteIdx % uint64(f.dev.BlockSize())
	var used bool
	err := f.pg.With(pno, func(pg *pager.Page) error {
		used = pg.Data()[off]&(byte(1)<<(blk%8)) != 0
		return nil
	})
	return used, err
}

// groupOf maps a block to its cylinder group.
func (f *FS) groupOf(blk uint64) uint64 {
	span := (f.sb.nblocks - f.sb.dataStart) / f.sb.ngroups
	if span == 0 {
		return 0
	}
	g := (blk - f.sb.dataStart) / span
	if g >= f.sb.ngroups {
		g = f.sb.ngroups - 1
	}
	return g
}

// groupStart returns the first data block of group g.
func (f *FS) groupStart(g uint64) uint64 {
	span := (f.sb.nblocks - f.sb.dataStart) / f.sb.ngroups
	return f.sb.dataStart + g*span
}

// allocBlock finds a free data block, preferring the given cylinder
// group (FFS locality policy: a file's blocks go to its directory's
// group).
func (f *FS) allocBlock(prefGroup uint64) (uint64, error) {
	f.allocMu.Lock()
	defer f.allocMu.Unlock()
	prefGroup = prefGroup % f.sb.ngroups
	// Scan the preferred group first, then the rest, wrapping.
	for gi := uint64(0); gi < f.sb.ngroups; gi++ {
		g := (prefGroup + gi) % f.sb.ngroups
		start := f.groupStart(g)
		end := f.groupStart(g + 1)
		if g == f.sb.ngroups-1 {
			end = f.sb.nblocks
		}
		for blk := start; blk < end; blk++ {
			used, err := f.bitmapGet(blk)
			if err != nil {
				return 0, err
			}
			if !used {
				if err := f.bitmapSet(blk, true); err != nil {
					return 0, err
				}
				f.addStat(func(s *Stats) {
					s.BlockAllocs++
					if gi == 0 {
						s.GroupHits++
					}
				})
				return blk, nil
			}
		}
	}
	return 0, ErrNoSpace
}

func (f *FS) freeBlock(blk uint64) error {
	// Drop any cached copy first: the block may be reallocated as file
	// data, which bypasses the cache, and a stale dirty page must never
	// win over direct writes.
	if err := f.pg.Invalidate(blk); err != nil {
		return err
	}
	f.allocMu.Lock()
	defer f.allocMu.Unlock()
	return f.bitmapSet(blk, false)
}

// --- inode table ---

func (f *FS) inodePage(ino uint64) (pno uint64, off int, err error) {
	if ino == 0 || ino > f.sb.ninodes {
		return 0, 0, fmt.Errorf("%w: inode %d", ErrInvalid, ino)
	}
	perBlock := uint64(f.dev.BlockSize()) / inodeSize
	pno = f.sb.itabStart + (ino-1)/perBlock
	off = int((ino - 1) % perBlock * inodeSize)
	return pno, off, nil
}

func (f *FS) readInode(ino uint64) (*inode, error) {
	pno, off, err := f.inodePage(ino)
	if err != nil {
		return nil, err
	}
	in := &inode{}
	err = f.pg.With(pno, func(pg *pager.Page) error {
		f.addStat(func(s *Stats) { s.InodeReads++ })
		b := pg.Data()[off:]
		in.Mode = binary.LittleEndian.Uint32(b)
		in.Nlink = binary.LittleEndian.Uint32(b[4:])
		in.Size = binary.LittleEndian.Uint64(b[8:])
		in.Atime = int64(binary.LittleEndian.Uint64(b[16:]))
		in.Mtime = int64(binary.LittleEndian.Uint64(b[24:]))
		in.Ctime = int64(binary.LittleEndian.Uint64(b[32:]))
		for i := 0; i < ndirect; i++ {
			in.Direct[i] = binary.LittleEndian.Uint64(b[40+8*i:])
		}
		in.Indirect = binary.LittleEndian.Uint64(b[40+8*ndirect:])
		in.DIndirect = binary.LittleEndian.Uint64(b[48+8*ndirect:])
		in.Group = binary.LittleEndian.Uint32(b[56+8*ndirect:])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return in, nil
}

func (f *FS) writeInode(ino uint64, in *inode) error {
	pno, off, err := f.inodePage(ino)
	if err != nil {
		return err
	}
	return f.pg.With(pno, func(pg *pager.Page) error {
		b := pg.Data()[off:]
		binary.LittleEndian.PutUint32(b, in.Mode)
		binary.LittleEndian.PutUint32(b[4:], in.Nlink)
		binary.LittleEndian.PutUint64(b[8:], in.Size)
		binary.LittleEndian.PutUint64(b[16:], uint64(in.Atime))
		binary.LittleEndian.PutUint64(b[24:], uint64(in.Mtime))
		binary.LittleEndian.PutUint64(b[32:], uint64(in.Ctime))
		for i := 0; i < ndirect; i++ {
			binary.LittleEndian.PutUint64(b[40+8*i:], in.Direct[i])
		}
		binary.LittleEndian.PutUint64(b[40+8*ndirect:], in.Indirect)
		binary.LittleEndian.PutUint64(b[48+8*ndirect:], in.DIndirect)
		binary.LittleEndian.PutUint32(b[56+8*ndirect:], in.Group)
		f.pg.MarkDirty(pg)
		return nil
	})
}

// allocInode finds a free inode slot (Mode == 0), scanning from a hint.
func (f *FS) allocInode() (uint64, error) {
	f.allocMu.Lock()
	defer f.allocMu.Unlock()
	if f.inoHint < 2 {
		f.inoHint = 2
	}
	for tried := uint64(0); tried < f.sb.ninodes; tried++ {
		ino := f.inoHint + tried
		if ino > f.sb.ninodes {
			ino = 2 + (ino-2)%(f.sb.ninodes-1)
		}
		if ino == rootIno {
			continue
		}
		in, err := f.readInode(ino)
		if err != nil {
			return 0, err
		}
		if in.Mode == 0 {
			// Claim it with a placeholder so concurrent allocs skip it.
			in.Mode = ModeRegular
			if err := f.writeInode(ino, in); err != nil {
				return 0, err
			}
			f.inoHint = ino + 1
			return ino, nil
		}
	}
	return 0, ErrNoInodes
}

// NumGroups exposes group count for layout experiments.
func (f *FS) NumGroups() uint64 { return f.sb.ngroups }

// DataStart exposes the first data block for layout experiments.
func (f *FS) DataStart() uint64 { return f.sb.dataStart }
