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
	MetadataPages int
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
		ext, err := extent.Open(v.pg, v.ba, m.ExtentHeader, v.opts.ExtentConfig)
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
			if res.Bytes != m.Size {
				report.addf("object %d: table size %d, extent tree holds %d", m.OID, m.Size, res.Bytes)
			}
			shadow, err := v.OSD.ShadowMeta(m.ExtentHeader)
			if err != nil {
				report.addf("object %d: shadow meta: %v", m.OID, err)
			} else if shadow.OID != m.OID || shadow.Size != m.Size {
				report.addf("object %d: shadow meta mismatch (oid %d size %d)", m.OID, shadow.OID, shadow.Size)
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
//   - per-object metadata agrees between the object table, the shadow
//     copy, and the extent tree
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
		ids, err := st.Lookup(tv.Value)
		if err != nil {
			report.addf("reverse entry (%d, %s): lookup: %v", oid, tv.Tag, err)
			return true
		}
		for _, id := range ids {
			if id == oid {
				return true
			}
		}
		report.addf("reverse entry (%d, %s=%q): no forward entry", oid, tv.Tag, tv.Value)
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
// lists when).
func (v *Volume) rebuildAllocator() error {
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
	// Components captured pageAlloc{v.ba} (the pointer) when they were
	// opened, so the rebuilt state is copied into the existing allocator
	// object rather than swapping the pointer.
	return v.ba.ReplaceWith(ba)
}
