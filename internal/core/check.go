package core

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/buddy"
	"repro/internal/extent"
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
	UsedBlocks    uint64
	FreeBlocks    uint64
	LimboBlocks   uint64 // freed but parked until the next checkpoint
	Problems      []string
}

// Ok reports whether the check found no problems.
func (r *CheckReport) Ok() bool { return len(r.Problems) == 0 }

func (r *CheckReport) addf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// usage accumulates every block owned by some structure.
type usage struct {
	ranges [][2]uint64 // absolute [lo, hi)
}

func (u *usage) addPage(pno uint64)     { u.ranges = append(u.ranges, [2]uint64{pno, pno + 1}) }
func (u *usage) addRange(lo, hi uint64) { u.ranges = append(u.ranges, [2]uint64{lo, hi}) }

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
	sort.Slice(u.ranges, func(i, j int) bool { return u.ranges[i][0] < u.ranges[j][0] })
	for i := 1; i < len(u.ranges); i++ {
		if u.ranges[i][0] < u.ranges[i-1][1] {
			msg := fmt.Sprintf("blocks [%d,%d) and [%d,%d) doubly owned",
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
// blocks they own, filling counts into report when non-nil. Shared by
// Check and rebuildAllocator.
func (v *Volume) collectUsage(report *CheckReport) (*usage, error) {
	u := &usage{}
	addTree := func(name string, tr *btree.Tree) error {
		res, err := tr.Check()
		if err != nil {
			if report != nil {
				report.addf("%s: %v", name, err)
				return nil
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, p := range res.AllPages {
			u.addPage(p)
		}
		if report != nil {
			report.MetadataPages += len(res.AllPages)
		}
		return nil
	}
	if err := addTree("catalog", v.catalog); err != nil {
		return nil, err
	}
	if err := addTree("reverse", v.reverse); err != nil {
		return nil, err
	}
	if err := addTree("object-table", v.OSD.MetaTree()); err != nil {
		return nil, err
	}
	for i, tr := range v.kvTrees {
		if err := addTree(fmt.Sprintf("kv-index-%d", i), tr); err != nil {
			return nil, err
		}
	}
	for i, tr := range v.ft.Inner().Trees() {
		if err := addTree(fmt.Sprintf("fulltext-%d", i), tr); err != nil {
			return nil, err
		}
	}
	if err := addTree("image-index", v.img.Tree()); err != nil {
		return nil, err
	}

	// Objects: walk each extent tree, claiming node pages and data blocks.
	var metas []osd.Meta
	if err := v.OSD.ForEach(func(m osd.Meta) bool {
		metas = append(metas, m)
		return true
	}); err != nil {
		return nil, err
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
			u.addPage(p)
		}
		for _, e := range res.DataExtents {
			u.addRange(e.Alloc, e.Alloc+uint64(e.AllocBlocks))
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
//   - no block is owned by two structures
//   - all owned blocks lie inside the data region
//   - the allocator agrees: owned blocks are not free, and the free count
//     complements the owned count exactly (no leaks)
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
	for _, r := range u.ranges {
		if r[0] < v.dataStart || r[1] > v.dataStart+v.dataBlocks {
			report.addf("blocks [%d,%d) outside data region", r[0], r[1])
		}
	}
	report.UsedBlocks = u.total()
	report.FreeBlocks = v.ba.FreeBlocks()
	// Deferred frees sit in limbo until the next checkpoint: owned by no
	// structure, but not yet reusable either. They count as free space in
	// the leak equation.
	report.LimboBlocks = v.ba.LimboBlocks()
	if report.UsedBlocks+report.FreeBlocks+report.LimboBlocks != v.dataBlocks {
		report.addf("leak: %d used + %d free + %d limbo != %d data blocks",
			report.UsedBlocks, report.FreeBlocks, report.LimboBlocks, v.dataBlocks)
	}
	for _, r := range u.ranges {
		if v.ba.IsFree(r[0], r[1]-r[0]) {
			report.addf("blocks [%d,%d) are owned but marked free", r[0], r[1])
		}
	}
	if err := v.ba.CheckFreeIntegrity(); err != nil {
		report.addf("allocator: %v", err)
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
// free lists (limbo counted free) must be the ones buddy.FromUsed builds
// from the blocks the reachability walk finds owned — order for order,
// not merely the same number of free blocks. Check's leak equation
// follows from it; recovery's tests call it after every Open, because
// Open no longer computes the allocator this way.
func (v *Volume) VerifyAllocator() error {
	u, err := v.collectUsage(nil)
	if err != nil {
		return err
	}
	if err := u.sortAndValidate(nil); err != nil {
		return err
	}
	want, err := buddy.FromUsed(v.dataStart, v.dataBlocks, u.ranges)
	if err != nil {
		return err
	}
	got, err := v.ba.SnapshotReleased()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want.Snapshot()) {
		return fmt.Errorf("core: allocator holds %d free blocks, the reachability walk %d, or the same in other runs",
			v.ba.FreeBlocks()+v.ba.LimboBlocks(), want.FreeBlocks())
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
	ba, err := buddy.FromUsed(v.dataStart, v.dataBlocks, u.ranges)
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
		// AllocAt fails only on a run the walk found linked.
		if err := v.ba.AllocAt(r.addr, r.n); err != nil && v.ba.IsFree(r.addr, r.n) {
			return err
		}
		if r.free {
			if err := v.ba.Free(r.addr, r.n); err != nil {
				return err
			}
		}
	}
	return nil
}
