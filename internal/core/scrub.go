package core

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/btree"
	"repro/internal/buddy"
	"repro/internal/extent"
	"repro/internal/osd"
)

// ScrubOptions tunes a scrub pass.
type ScrubOptions struct {
	// Throttle, when non-zero, sleeps this long after every ThrottleEvery
	// blocks — the "low priority" knob: a scrub over a live volume cedes
	// the device to foreground I/O instead of saturating it.
	Throttle time.Duration
	// ThrottleEvery is the block batch between throttle sleeps
	// (default 256).
	ThrottleEvery int
}

// ScrubReport summarizes one scrub pass over the volume.
type ScrubReport struct {
	Scanned uint64 // data-region blocks whose checksum was verified
	Unknown uint64 // blocks with no recorded sum (never written or read)

	// Per-class corruption counts. Classification comes from a tolerant
	// structure walk run before the scan; corruption in blocks no
	// surviving structure reaches (free space, limbo, or below a broken
	// interior node) lands in Unreachable.
	CorruptBtreeNodes  uint64
	CorruptExtentNodes uint64
	CorruptDataBlocks  uint64
	CorruptUnreachable uint64
	// HeaderCorrupt is set when the volume header (superblock) fails its
	// own embedded checksum.
	HeaderCorrupt bool

	// CorruptPages lists the first corrupt block numbers found (capped).
	CorruptPages []uint64
	// WalkProblems records structures the classification walk could not
	// traverse (their pages scan as Unreachable).
	WalkProblems []string
}

// Corrupt reports the total number of blocks that failed verification,
// the header included.
func (r *ScrubReport) Corrupt() uint64 {
	n := r.CorruptBtreeNodes + r.CorruptExtentNodes + r.CorruptDataBlocks + r.CorruptUnreachable
	if r.HeaderCorrupt {
		n++
	}
	return n
}

// Ok reports whether the scrub found no corruption.
func (r *ScrubReport) Ok() bool { return r.Corrupt() == 0 }

func (r *ScrubReport) String() string {
	return fmt.Sprintf("scrub: %d scanned, %d unknown, %d corrupt (btree %d, extent %d, data %d, unreachable %d, header %v)",
		r.Scanned, r.Unknown, r.Corrupt(), r.CorruptBtreeNodes, r.CorruptExtentNodes,
		r.CorruptDataBlocks, r.CorruptUnreachable, r.HeaderCorrupt)
}

// scrub block classes.
const (
	classUnreachable = iota
	classBtree
	classExtentNode
	classData
)

// scrubClassify walks every structure tolerantly and maps each reachable
// block to its class. Walk failures (a corrupt interior page, say) are
// recorded and the unreachable subtree's blocks stay unclassified — the
// scan still verifies them, it just cannot name their owner.
func (v *Volume) scrubClassify(rep *ScrubReport) map[uint64]int {
	class := make(map[uint64]int)
	addTree := func(name string, pages []uint64, err error) {
		if err != nil {
			rep.WalkProblems = append(rep.WalkProblems, fmt.Sprintf("%s: %v", name, err))
			return
		}
		for _, p := range pages {
			class[p] = classBtree
		}
	}
	for _, nt := range v.scrubTrees() {
		res, err := nt.tree.Check()
		if err != nil {
			addTree(nt.name, nil, err)
			continue
		}
		addTree(nt.name, res.AllPages, nil)
	}

	var metas []osd.Meta
	if err := v.OSD.ForEach(func(m osd.Meta) bool {
		metas = append(metas, m)
		return true
	}); err != nil {
		rep.WalkProblems = append(rep.WalkProblems, fmt.Sprintf("object table: %v", err))
		return class
	}
	for _, m := range metas {
		ext, err := extent.Open(v.pg, v.ba, m.Root, uint64(m.OID), v.opts.ExtentConfig, nil)
		if err != nil {
			rep.WalkProblems = append(rep.WalkProblems, fmt.Sprintf("object %d: %v", m.OID, err))
			continue
		}
		res, err := ext.Check()
		if err != nil {
			rep.WalkProblems = append(rep.WalkProblems, fmt.Sprintf("object %d: %v", m.OID, err))
			continue
		}
		for _, p := range res.AllPages {
			class[p] = classExtentNode
		}
		for _, e := range res.DataExtents {
			for b := e.Sector >> buddy.SectorShift; b<<buddy.SectorShift < e.Sector+uint64(e.Sectors); b++ {
				class[b] = classData
			}
		}
	}
	return class
}

// namedTree pairs a btree with a name for walk diagnostics.
type namedTree struct {
	name string
	tree *btree.Tree
}

// scrubTrees lists every btree on the volume.
func (v *Volume) scrubTrees() []namedTree {
	trees := []namedTree{
		{"catalog", v.catalog},
		{"reverse", v.reverse},
		{"object-table", v.OSD.MetaTree()},
		{"image-index", v.img.Tree()},
	}
	for i, tr := range v.kvTrees {
		trees = append(trees, namedTree{fmt.Sprintf("kv-index-%d", i), tr})
	}
	for i, tr := range v.ft.Inner().Trees() {
		trees = append(trees, namedTree{fmt.Sprintf("fulltext-%d", i), tr})
	}
	return trees
}

// Scrub verifies every checksummed block of the data region against the
// in-memory sum table, reading the raw device so cached copies cannot
// mask on-disk rot, and verifies the volume header's embedded checksum.
// It runs concurrently with normal operation: the sum table tracks disk
// content (a dirty cached page's home block still matches its recorded
// sum), and a read racing a writer is retried against the refreshed sum
// before being declared corrupt. Blocks whose sum is unknown (never
// written) are counted, not verified.
//
// The checksum sidecar itself carries no second-level checksum: rot
// there misreports a good block as bad — fail-stop, never silent wrong
// data (see csum.go).
func (v *Volume) Scrub(opts ScrubOptions) (*ScrubReport, error) {
	if opts.ThrottleEvery <= 0 {
		opts.ThrottleEvery = 256
	}
	rep := &ScrubReport{}
	if _, err := readSuperblock(v.raw); err != nil {
		rep.HeaderCorrupt = true
	}
	class := v.scrubClassify(rep)

	const maxListed = 64
	buf := make([]byte, v.raw.BlockSize())
	for no := v.dataStart; no < v.dataStart+v.dataBlocks; no++ {
		if opts.Throttle > 0 && (no-v.dataStart) > 0 && (no-v.dataStart)%uint64(opts.ThrottleEvery) == 0 {
			time.Sleep(opts.Throttle)
		}
		ok, known, err := v.scrubBlock(no, buf)
		if err != nil {
			return rep, err
		}
		if !known {
			rep.Unknown++
			continue
		}
		rep.Scanned++
		if ok {
			continue
		}
		switch class[no] {
		case classBtree:
			rep.CorruptBtreeNodes++
		case classExtentNode:
			rep.CorruptExtentNodes++
		case classData:
			rep.CorruptDataBlocks++
		default:
			rep.CorruptUnreachable++
		}
		if len(rep.CorruptPages) < maxListed {
			rep.CorruptPages = append(rep.CorruptPages, no)
		}
	}
	return rep, nil
}

// scrubBlock verifies one block, retrying around concurrent writers: a
// writer computes the new sum before its device write and records it
// after, so a read landing inside that window sees new content against
// the old sum. Re-reading with the refreshed sum settles it.
func (v *Volume) scrubBlock(no uint64, buf []byte) (ok, known bool, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		want, has := v.sums.get(no)
		if !has {
			return false, false, nil
		}
		if err := v.raw.ReadBlock(no, buf); err != nil {
			return false, true, err
		}
		if blockdev.Sum(buf) == want {
			return true, true, nil
		}
		// Mismatch: if the sum moved underneath us a writer raced the
		// read; try again. A stable sum twice in a row is real rot.
		if again, _ := v.sums.get(no); again == want && attempt > 0 {
			return false, true, nil
		}
	}
	return false, true, nil
}
