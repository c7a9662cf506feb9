package core

import (
	"fmt"

	"repro/internal/blockdev"
)

// ScrubReport summarizes one scrub pass over the volume.
type ScrubReport struct {
	Scanned uint64 // data-region blocks whose checksum was verified
	Unknown uint64 // blocks with no recorded sum (never written or read)

	// Per-class corruption counts. Classification comes from Check's
	// structure walk (collectUsage), run tolerantly before the scan;
	// corruption in blocks no surviving structure reaches (free space,
	// limbo, or below a broken interior node) lands in Unreachable.
	CorruptBtreeNodes  uint64
	CorruptExtentNodes uint64
	CorruptDataBlocks  uint64
	CorruptUnreachable uint64
	// HeaderCorrupt is set when the volume header (superblock) fails its
	// own embedded checksum.
	HeaderCorrupt bool

	// CorruptPages lists the first corrupt block numbers found (capped).
	CorruptPages []uint64
	// WalkProblems records what the classification walk found wrong,
	// structures it could not traverse among them (their pages scan as
	// Unreachable).
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

// Block classes: what owns a block, as collectUsage records it and
// Scrub counts its corruption.
const (
	classUnreachable = iota
	classBtree
	classExtentNode
	classData
)

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
func (v *Volume) Scrub() (*ScrubReport, error) {
	rep := &ScrubReport{}
	if _, err := readSuperblock(v.raw); err != nil {
		rep.HeaderCorrupt = true
	}
	walk := &CheckReport{}
	u, err := v.collectUsage(walk)
	rep.WalkProblems = walk.Problems
	if err != nil {
		rep.WalkProblems = append(rep.WalkProblems, fmt.Sprintf("object table: %v", err))
	}
	class := u.classes()

	const maxListed = 64
	buf := make([]byte, v.raw.BlockSize())
	for no := v.dataStart; no < v.dataStart+v.dataBlocks; no++ {
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
