// Command hfadfsck demonstrates the volume checker against healthy and
// deliberately damaged volumes. With no flags it builds a volume, checks
// it, then injects corruption and shows the checker catching it — the
// offline-fsck story for a file system whose namespace is a set of
// indexes rather than a directory tree.
//
// Usage:
//
//	hfadfsck          # healthy + corrupted demonstration
//	hfadfsck -crash   # crash-injection + recovery + fsck demonstration
//	hfadfsck -extents # extent-tree structural verification demonstration
//	hfadfsck -scrub   # checksum scrub over seeded media corruption
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/osd"
)

func main() {
	crash := flag.Bool("crash", false, "demonstrate crash recovery instead of corruption detection")
	extents := flag.Bool("extents", false, "demonstrate extent-tree structural verification")
	scrub := flag.Bool("scrub", false, "demonstrate the checksum scrub over seeded media corruption")
	flag.Parse()
	var err error
	switch {
	case *crash:
		err = crashDemo()
	case *extents:
		err = extentDemo()
	case *scrub:
		err = scrubDemo()
	default:
		err = corruptionDemo()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func populate(st *hfad.Store) error {
	pfs, err := st.POSIX()
	if err != nil {
		return err
	}
	if err := pfs.MkdirAll("/data", 0o755); err != nil {
		return err
	}
	for i := 0; i < 25; i++ {
		p := fmt.Sprintf("/data/file%02d", i)
		if err := pfs.WriteFile(p, []byte(fmt.Sprintf("contents of file %d", i)), 0o644); err != nil {
			return err
		}
		m, err := pfs.Stat(p)
		if err != nil {
			return err
		}
		if err := st.Tag(m.OID, hfad.TagUDef, fmt.Sprintf("bucket:%d", i%5)); err != nil {
			return err
		}
	}
	return nil
}

func report(st *hfad.Store) error {
	rep, err := st.Check()
	if err != nil {
		return err
	}
	if rep.Ok() {
		fmt.Printf("  clean: %d objects, %d extents, %d metadata pages, %d used + %d free blocks\n",
			rep.Objects, rep.Extents, rep.MetadataPages, rep.UsedBlocks, rep.FreeBlocks)
		return nil
	}
	fmt.Printf("  %d problem(s):\n", len(rep.Problems))
	for i, p := range rep.Problems {
		if i == 8 {
			fmt.Printf("    ... and %d more\n", len(rep.Problems)-8)
			break
		}
		fmt.Println("   ", p)
	}
	return nil
}

func corruptionDemo() error {
	mem := blockdev.NewMem(1<<15, blockdev.DefaultBlockSize)
	st, err := hfad.Create(mem, hfad.Options{})
	if err != nil {
		return err
	}
	if err := populate(st); err != nil {
		return err
	}
	fmt.Println("== healthy volume ==")
	if err := report(st); err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return err
	}

	// Scribble over in-use metadata: scan the data region for occupied
	// blocks (past the superblock and allocator-snapshot region) and
	// flip bits in a handful of them.
	fmt.Println("== after corrupting metadata blocks ==")
	buf := make([]byte, blockdev.DefaultBlockSize)
	corrupted := 0
	for target := uint64(65); target < mem.NumBlocks() && corrupted < 6; target++ {
		if err := mem.ReadBlock(target, buf); err != nil {
			return err
		}
		inUse := false
		for _, b := range buf {
			if b != 0 {
				inUse = true
				break
			}
		}
		if !inUse {
			continue
		}
		for i := range buf {
			buf[i] ^= 0x5A
		}
		if err := mem.WriteBlock(target, buf); err != nil {
			return err
		}
		corrupted++
	}
	fmt.Printf("  corrupted %d occupied blocks\n", corrupted)
	// Reopen from the damaged image so no cache hides the damage.
	st2, err := hfad.Open(mem, hfad.Options{})
	if err != nil {
		fmt.Printf("  open refused the volume outright: %v\n", err)
		return nil
	}
	if err := report(st2); err != nil {
		// A checker crash on garbage is itself detection; report and
		// succeed.
		fmt.Printf("  checker error (detected): %v\n", err)
	}
	return nil
}

// extentDemo targets the extent-tree structural checks: node size
// accounting versus the recorded object size, extent overlap/ordering,
// and orphaned allocation runs. It builds multi-extent objects, then
// injects each class of damage into a raw extent leaf and shows the
// checker naming it.
func extentDemo() error {
	build := func() (*blockdev.MemDevice, error) {
		mem := blockdev.NewMem(1<<15, blockdev.DefaultBlockSize)
		st, err := hfad.Create(mem, hfad.Options{MaxExtentBytes: 4096})
		if err != nil {
			return nil, err
		}
		pfs, err := st.POSIX()
		if err != nil {
			return nil, err
		}
		body := make([]byte, 120*1024) // ~30 extents per file
		for i := range body {
			body[i] = byte(i)
		}
		for i := 0; i < 3; i++ {
			if err := pfs.WriteFile(fmt.Sprintf("/big%d", i), body, 0o644); err != nil {
				return nil, err
			}
		}
		return mem, st.Close()
	}

	// findExtentLeaf scans the raw image for an extent-tree leaf (page
	// type 6) holding at least two real extents.
	const (
		leafType  = 6
		hdrSize   = 24
		cellSize  = 16
		offNCells = 2
	)
	findExtentLeaf := func(mem *blockdev.MemDevice) (uint64, []byte, error) {
		buf := make([]byte, blockdev.DefaultBlockSize)
		for b := uint64(1); b < mem.NumBlocks(); b++ {
			if err := mem.ReadBlock(b, buf); err != nil {
				return 0, nil, err
			}
			if buf[0] != leafType {
				continue
			}
			n := int(binary.LittleEndian.Uint16(buf[offNCells:]))
			if n < 2 || hdrSize+n*cellSize > len(buf) {
				continue
			}
			if binary.LittleEndian.Uint64(buf[hdrSize:]) == 0 ||
				binary.LittleEndian.Uint64(buf[hdrSize+cellSize:]) == 0 {
				continue // want two real (non-hole) extents
			}
			out := make([]byte, len(buf))
			copy(out, buf)
			return b, out, nil
		}
		return 0, nil, fmt.Errorf("no extent leaf with two real extents found")
	}

	fmt.Println("== healthy multi-extent volume ==")
	mem, err := build()
	if err != nil {
		return err
	}
	cleanImg := mem.Snapshot()
	blk, orig, err := findExtentLeaf(mem)
	if err != nil {
		return err
	}

	// Each scenario restores the pristine image, injects one class of
	// damage into the found leaf, and runs the checker on a clean open.
	scenario := func(label string, tamper func(leaf []byte)) error {
		if label != "" {
			fmt.Printf("== %s ==\n", label)
		}
		dev := blockdev.NewMem(mem.NumBlocks(), blockdev.DefaultBlockSize)
		if err := dev.RestoreFrom(cleanImg); err != nil {
			return err
		}
		if tamper != nil {
			leaf := make([]byte, len(orig))
			copy(leaf, orig)
			tamper(leaf)
			if err := dev.WriteBlock(blk, leaf); err != nil {
				return err
			}
		}
		st, err := hfad.Open(dev, hfad.Options{})
		if err != nil {
			fmt.Printf("  open refused the volume outright: %v\n", err)
			return nil
		}
		if err := report(st); err != nil {
			fmt.Printf("  checker error (detected): %v\n", err)
		}
		return nil
	}

	if err := scenario("", nil); err != nil {
		return err
	}
	if err := scenario("size accounting: extent length inflated in a leaf", func(leaf []byte) {
		// Cell 0's Len field lives at cell offset 12: the leaf's sum no
		// longer matches its parent count or the recorded object size.
		lenOff := hdrSize + 12
		binary.LittleEndian.PutUint32(leaf[lenOff:],
			binary.LittleEndian.Uint32(leaf[lenOff:])+512)
	}); err != nil {
		return err
	}
	if err := scenario("overlap: two extents claiming one allocation", func(leaf []byte) {
		// Point cell 1's allocation at cell 0's: double ownership.
		copy(leaf[hdrSize+cellSize:hdrSize+cellSize+8], leaf[hdrSize:hdrSize+8])
	}); err != nil {
		return err
	}
	return scenario("orphaned run: an extent pointed off its allocation", func(leaf []byte) {
		// Shift cell 0's allocation: its real blocks become an orphaned
		// leak while the claimed range collides with its neighbour's.
		alloc := binary.LittleEndian.Uint64(leaf[hdrSize:])
		binary.LittleEndian.PutUint64(leaf[hdrSize:], alloc+1)
	})
}

// scrubDemo builds a volume, seeds single-bit rot into occupied blocks of
// every class (btree node, extent node, data block), and shows the scrub
// naming each — plus the typed read-time detection a client would see.
func scrubDemo() error {
	mem := blockdev.NewMem(1<<15, blockdev.DefaultBlockSize)
	st, err := hfad.Create(mem, hfad.Options{Transactional: true, MaxExtentBytes: 4096})
	if err != nil {
		return err
	}
	if err := populate(st); err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return err
	}

	fmt.Println("== clean scrub ==")
	rep, err := st.Scrub(hfad.ScrubOptions{})
	if err != nil {
		return err
	}
	fmt.Println("  " + rep.String())

	// Seed rot: flip one bit in several occupied data-region blocks,
	// bypassing the store (media corruption, not a software write).
	start, blocks := st.Volume().DataRegion()
	buf := make([]byte, blockdev.DefaultBlockSize)
	flipped := 0
	for b := start; b < start+blocks && flipped < 8; b += 37 {
		if err := mem.ReadBlock(b, buf); err != nil {
			return err
		}
		occupied := false
		for _, c := range buf {
			if c != 0 {
				occupied = true
				break
			}
		}
		if !occupied {
			continue
		}
		buf[int(b)%len(buf)] ^= 1 << (b % 8)
		if err := mem.WriteBlock(b, buf); err != nil {
			return err
		}
		flipped++
	}
	fmt.Printf("== after flipping one bit in %d occupied blocks ==\n", flipped)
	rep, err = st.Scrub(hfad.ScrubOptions{})
	if err != nil {
		return err
	}
	fmt.Println("  " + rep.String())
	if len(rep.CorruptPages) > 0 {
		fmt.Printf("  corrupt blocks: %v\n", rep.CorruptPages)
	}
	return nil
}

func crashDemo() error {
	mem := blockdev.NewMem(1<<15, blockdev.DefaultBlockSize)
	fd := blockdev.NewFault(mem)
	st, err := hfad.Create(fd, hfad.Options{Transactional: true})
	if err != nil {
		return err
	}
	if err := populate(st); err != nil {
		return err
	}
	fmt.Println("== committed state built (transactional volume) ==")

	fmt.Println("== injecting device failure mid-operation ==")
	fd.FailAfterWrites(7)
	for i := 0; i < 100; i++ {
		obj, err := st.CreateObject("crasher")
		if err != nil {
			fmt.Printf("  operation %d failed as injected: %v\n", i, err)
			break
		}
		if err := obj.Append([]byte("doomed")); err != nil {
			fmt.Printf("  operation %d failed as injected: %v\n", i, err)
			break
		}
		obj.Close()
	}
	if !fd.Tripped() {
		return fmt.Errorf("fault never fired")
	}

	fmt.Println("== reopening from the surviving image (WAL recovery) ==")
	st2, err := hfad.Open(mem, hfad.Options{})
	if err != nil {
		return err
	}
	fmt.Println("  recovery:", st2.RecoveryReport())
	if err := report(st2); err != nil {
		return err
	}
	// Committed data must still resolve.
	ids, err := st2.Find(hfad.TV(hfad.TagUDef, "bucket:3"))
	if err != nil {
		return err
	}
	fmt.Printf("  committed names intact: bucket:3 -> %d objects\n", len(ids))
	var stat osd.Meta
	if len(ids) > 0 {
		stat, err = st2.Stat(ids[0])
		if err != nil {
			return err
		}
		fmt.Printf("  object %d: %d bytes, owner %q\n", stat.OID, stat.Size, stat.Owner)
	}
	return st2.Close()
}
