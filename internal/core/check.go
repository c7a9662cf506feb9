package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/buddy"
	"repro/internal/extent"
	"repro/internal/fulltext"
	"repro/internal/index"
	"repro/internal/osd"
)

// CheckReport summarizes a full volume check (fsck).
type CheckReport struct {
	Objects       uint64
	Extents       uint64
	Holes         uint64
	ExtentPages   int // extent-tree pages below the rows, across all objects
	MetadataPages int // btree pages
	// Trees holds each B-tree's leaf count and fill, in the order Check
	// walks them.
	Trees []TreeFill
	// Space in sectors (buddy.SectorsPerBlock to a block): owned by a
	// structure, free (stranded sectors included), and freed but parked
	// until the next checkpoint.
	UsedSectors  uint64
	FreeSectors  uint64
	LimboSectors uint64
	Problems     []string
}

// TreeFill is one B-tree's line of a CheckReport: how many leaves it
// has and what share of their room its cells take
// (btree.CheckResult.LeafFill).
type TreeFill struct {
	Name   string
	Leaves int
	Fill   float64
}

// Ok reports whether the check found no problems.
func (r *CheckReport) Ok() bool { return len(r.Problems) == 0 }

func (r *CheckReport) addf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// usage accumulates every sector owned by some structure, and the class
// of its owner.
type usage struct {
	ranges [][2]uint64 // absolute sectors [lo, hi)
	class  []int       // ranges[i]'s owner: classBtree, classExtentNode or classData
}

func (u *usage) addPage(pno uint64, class int) {
	u.addRange(pno<<buddy.SectorShift, (pno+1)<<buddy.SectorShift, class)
}

func (u *usage) addRange(lo, hi uint64, class int) {
	u.ranges = append(u.ranges, [2]uint64{lo, hi})
	u.class = append(u.class, class)
}

// usage sorts by first sector, keeping each range's class with it.
func (u *usage) Len() int           { return len(u.ranges) }
func (u *usage) Less(i, j int) bool { return u.ranges[i][0] < u.ranges[j][0] }
func (u *usage) Swap(i, j int) {
	u.ranges[i], u.ranges[j] = u.ranges[j], u.ranges[i]
	u.class[i], u.class[j] = u.class[j], u.class[i]
}

// classes maps every block a structure owns to its owner's class; a
// block with two owners gets the one walked last.
func (u *usage) classes() map[uint64]int {
	class := make(map[uint64]int)
	for i, r := range u.ranges {
		for b := r[0] >> buddy.SectorShift; b<<buddy.SectorShift < r[1]; b++ {
			class[b] = u.class[i]
		}
	}
	return class
}

func (u *usage) total() uint64 {
	var n uint64
	for _, r := range u.ranges {
		n += r[1] - r[0]
	}
	return n
}

// sortAndValidate orders ranges and reports overlaps through report (or
// returns an error when report is nil).
func (u *usage) sortAndValidate(report *CheckReport) error {
	sort.Sort(u)
	for i := 1; i < len(u.ranges); i++ {
		if u.ranges[i][0] < u.ranges[i-1][1] {
			msg := fmt.Sprintf("sectors [%d,%d) and [%d,%d) doubly owned",
				u.ranges[i-1][0], u.ranges[i-1][1], u.ranges[i][0], u.ranges[i][1])
			if report == nil {
				return fmt.Errorf("core: %s", msg)
			}
			report.addf("%s", msg)
		}
	}
	return nil
}

// collectUsage walks every structure on the volume and returns the set of
// sectors they own, each with its owner's class, filling counts into
// report when non-nil. Shared by Check, Scrub and rebuildAllocator. With
// a report, a structure that cannot be walked is a problem in it; only a
// failed object-table scan fails the walk, and then u holds what was
// walked before it.
func (v *Volume) collectUsage(report *CheckReport) (u *usage, err error) {
	u = &usage{}
	for _, nt := range v.allTrees() {
		res, err := nt.tree.Check()
		if err != nil {
			if report != nil {
				report.addf("%s: %v", nt.name(), err)
				continue
			}
			return nil, fmt.Errorf("%s: %w", nt.name(), err)
		}
		for _, p := range res.AllPages {
			u.addPage(p, classBtree)
		}
		if report != nil {
			report.MetadataPages += len(res.AllPages)
			report.Trees = append(report.Trees, TreeFill{Name: nt.name(), Leaves: res.Leaves, Fill: res.LeafFill()})
		}
	}

	// Objects: walk each extent tree, claiming node pages and data blocks.
	var metas []osd.Meta
	if err := v.OSD.ForEach(func(m osd.Meta) bool {
		metas = append(metas, m)
		return true
	}); err != nil {
		return u, err
	}
	for _, m := range metas {
		ext, err := extent.Open(v.pg, v.ba, m.Root, uint64(m.OID), v.opts.ExtentConfig, nil)
		if err != nil {
			if report != nil {
				report.addf("object %d: open extent tree: %v", m.OID, err)
				continue
			}
			return nil, err
		}
		res, err := ext.Check()
		if err != nil {
			if report != nil {
				report.addf("object %d: %v", m.OID, err)
				continue
			}
			return nil, err
		}
		for _, p := range res.AllPages {
			u.addPage(p, classExtentNode)
		}
		for _, e := range res.DataExtents {
			u.addRange(e.Sector, e.Sector+uint64(e.Sectors), classData)
		}
		if report != nil {
			report.Objects++
			report.Extents += res.Extents
			report.Holes += res.Holes
			report.ExtentPages += res.Pages
			if res.Bytes != m.Size {
				report.addf("object %d: table size %d, extent tree holds %d", m.OID, m.Size, res.Bytes)
			}
		}
	}
	return u, nil
}

// Check runs a full volume consistency check:
//
//   - every component tree passes its own structural check
//   - every posting list of every full-text segment decodes; each
//     segment that fails is one problem, and a segment page that cannot
//     be read for a reason other than corruption fails Check itself
//   - no sector is owned by two structures (a slot of a pack is owned
//     on its own, so two objects in one pack are not a conflict)
//   - all owned sectors lie inside the data region
//   - the allocator agrees: owned sectors are not free, and the free
//     count complements the owned count exactly, in sectors (no leaks)
//   - per-object metadata agrees between the object table and the extent
//     tree: its size, and the owner its nodes point back to
//   - every reverse-index entry has a matching forward index entry and an
//     existing object, and every forward entry has its reverse twin
func (v *Volume) Check() (*CheckReport, error) {
	report := &CheckReport{}
	u, err := v.collectUsage(report)
	if err != nil {
		return nil, err
	}
	if err := u.sortAndValidate(report); err != nil {
		return nil, err
	}
	lo, hi := v.dataStart<<buddy.SectorShift, (v.dataStart+v.dataBlocks)<<buddy.SectorShift
	for _, r := range u.ranges {
		if r[0] < lo || r[1] > hi {
			report.addf("sectors [%d,%d) outside data region", r[0], r[1])
		}
	}
	report.UsedSectors = u.total()
	// Deferred frees sit in limbo until the next checkpoint: owned by no
	// structure, but not yet reusable either. They count as free space in
	// the leak equation.
	report.FreeSectors, report.LimboSectors = v.ba.SectorCounts()
	if report.UsedSectors+report.FreeSectors+report.LimboSectors != hi-lo {
		report.addf("leak: %d used + %d free + %d limbo != %d data sectors",
			report.UsedSectors, report.FreeSectors, report.LimboSectors, hi-lo)
	}
	for _, r := range u.ranges {
		if v.ba.IsFreeSectors(r[0], r[1]-r[0]) {
			report.addf("sectors [%d,%d) are owned but marked free", r[0], r[1])
		}
	}
	if err := v.ba.CheckFreeIntegrity(); err != nil {
		report.addf("allocator: %v", err)
	}
	for _, err := range v.ft.Inner().Check() {
		if !errors.Is(err, fulltext.ErrCorrupt) && !errors.Is(err, btree.ErrCorrupt) && !errors.Is(err, ErrCorrupt) {
			return nil, err
		}
		report.addf("%v", err)
	}
	v.checkNaming(report)
	return report, nil
}

// checkNaming cross-verifies the reverse index against the forward
// indexes and object table.
func (v *Volume) checkNaming(report *CheckReport) {
	// Reverse → forward.
	_ = v.reverse.Scan(nil, nil, func(k, _ []byte) bool {
		if len(k) < 9 {
			report.addf("reverse index: short key")
			return true
		}
		tv, err := parseRevKey(k)
		if err != nil {
			report.addf("reverse index: %v", err)
			return true
		}
		oid := OID(0)
		for i := 0; i < 8; i++ {
			oid = oid<<8 | OID(k[i])
		}
		if _, err := v.OSD.Stat(oid); err != nil {
			report.addf("reverse entry (%d, %s): object missing", oid, tv.Tag)
			return true
		}
		if tv.Tag == index.TagFulltext || tv.Tag == index.TagImage {
			return true // content indexes carry no recoverable value
		}
		st, err := v.registry.Get(tv.Tag)
		if err != nil {
			report.addf("reverse entry (%d, %s): %v", oid, tv.Tag, err)
			return true
		}
		found, err := posted(st, tv.Value, oid)
		if err != nil {
			report.addf("reverse entry (%d, %s): lookup: %v", oid, tv.Tag, err)
			return true
		}
		if !found {
			report.addf("reverse entry (%d, %s=%q): no forward entry", oid, tv.Tag, tv.Value)
		}
		return true
	})
	// Forward → reverse, for the KV trees.
	for _, tr := range v.kvTrees {
		_ = tr.Scan(nil, nil, func(k, _ []byte) bool {
			value, oid, err := index.DecodeEntryKey(k)
			if err != nil {
				report.addf("forward index: %v", err)
				return true
			}
			// Identify the tag by probing the reverse index for any tag;
			// the reverse key embeds the tag, so search all known tags.
			found := false
			for _, tag := range v.registry.Tags() {
				if has, _ := v.reverse.Has(revKey(oid, tag, value)); has {
					found = true
					break
				}
			}
			if !found {
				report.addf("forward entry (oid %d, value %q): no reverse entry", oid, value)
			}
			return true
		})
	}
}

// posted reports whether oid is in value's posting list in st. It seeks
// rather than scans, so checking every entry of an n-OID list costs n
// seeks, not n².
func posted(st index.Store, value []byte, oid OID) (bool, error) {
	it, err := index.IterFor(st, value)
	if err != nil {
		return false, err
	}
	got, ok, err := it.Seek(oid)
	return ok && got == oid, err
}

// VerifyAllocator holds the allocator to its definition, exactly: the
// free lists (limbo counted free) must be the ones buddy.FromUsedSectors
// builds from the sectors the reachability walk finds owned — order for
// order, not merely the same number of free sectors. Check's leak
// equation follows from it; recovery's tests call it after every Open,
// because Open no longer computes the allocator this way.
func (v *Volume) VerifyAllocator() error {
	u, err := v.collectUsage(nil)
	if err != nil {
		return err
	}
	if err := u.sortAndValidate(nil); err != nil {
		return err
	}
	want, err := buddy.FromUsedSectors(v.dataStart, v.dataBlocks, u.ranges)
	if err != nil {
		return err
	}
	got, err := v.ba.SnapshotReleased()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want.Snapshot()) {
		free, limbo := v.ba.SectorCounts()
		wfree, _ := want.SectorCounts()
		return fmt.Errorf("core: allocator holds %d free sectors, the reachability walk %d, or the same in other runs",
			free+limbo, wfree)
	}
	return nil
}

// rebuildAllocator reconstructs buddy state from reachability: the
// definition Check holds the allocator to, and Open's repair when the
// device holds no snapshot slot it can restore instead (restoreAllocator
// lists when). It runs before the losers' rollback, on their crash state,
// so the tail's allocator records are laid over the walk: a run the tail
// allocated stays allocated though nothing links it yet (a loser's new
// tree, whose inverse frees it), and a run the tail freed is parked in
// limbo though something still links it (a loser's destroy, whose
// inverse takes it back) — as the slot path leaves them (see
// replayAllocator). Limbo keeps a freed run from every allocation but the
// rollback that takes it back, so the records apply in order.
func (v *Volume) rebuildAllocator(tail []allocRec) error {
	u, err := v.collectUsage(nil)
	if err != nil {
		return err
	}
	if err := u.sortAndValidate(nil); err != nil {
		return err
	}
	v.recovery.Allocator.Count = int64(len(u.ranges))
	ba, err := buddy.FromUsedSectors(v.dataStart, v.dataBlocks, u.ranges)
	if err != nil {
		return err
	}
	// Components captured v.ba (the pointer) when they were
	// opened, so the rebuilt state is copied into the existing allocator
	// object rather than swapping the pointer.
	if err := v.ba.ReplaceWith(ba); err != nil {
		return err
	}
	for _, r := range tail {
		// AllocSectorsAt fails only on a run the walk found linked.
		if err := v.ba.AllocSectorsAt(r.addr, r.n); err != nil && v.ba.IsFreeSectors(r.addr, r.n) {
			return err
		}
		if r.free {
			if err := v.ba.FreeSectors(r.addr, r.n); err != nil {
				return err
			}
		}
	}
	return nil
}
