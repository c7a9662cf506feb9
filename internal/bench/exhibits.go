package bench

import (
	"errors"
	"fmt"
	"io"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/index"
	"repro/internal/stats"
)

// RunT1 reproduces Table 1: "Type/Value pairs for different API uses" —
// one live naming operation per row, against a populated volume, showing
// that every use case of the paper's table resolves through the same
// native API.
func RunT1(s Scale) (*Result, error) {
	st, _, err := newHFAD(devBlocks(s, 1<<14, 1<<15), blockdev.NullModel{}, hfad.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	pfs, err := st.POSIX()
	if err != nil {
		return nil, err
	}
	if err := pfs.MkdirAll("/home/margo", 0o755); err != nil {
		return nil, err
	}
	if err := pfs.WriteFile("/home/margo/paper.tex", []byte("hierarchical file systems are dead"), 0o644); err != nil {
		return nil, err
	}
	m, err := pfs.Stat("/home/margo/paper.tex")
	if err != nil {
		return nil, err
	}
	oid := m.OID
	if err := st.IndexContent(oid); err != nil {
		return nil, err
	}
	for _, tag := range []struct{ tag, val string }{
		{hfad.TagUser, "margo"},
		{hfad.TagUDef, "annotation:hotos-draft"},
		{hfad.TagApp, "latex"},
	} {
		if err := st.Tag(oid, tag.tag, tag.val); err != nil {
			return nil, err
		}
	}

	tbl := stats.NewTable("Table 1 — tag/value pairs per API use (each row resolved live)",
		"use", "tag", "value", "resolved OIDs")
	row := func(use, tag, value string, pairs ...hfad.TagValue) error {
		ids, err := st.Find(pairs...)
		if err != nil {
			return err
		}
		if len(ids) != 1 || ids[0] != oid {
			return fmt.Errorf("T1 %s row resolved %v, want [%d]", use, ids, oid)
		}
		tbl.AddRow(use, tag, value, fmt.Sprintf("%v", ids))
		return nil
	}
	if err := row("POSIX", "POSIX", "pathname", hfad.TV(hfad.TagPOSIX, "/home/margo/paper.tex")); err != nil {
		return nil, err
	}
	if err := row("Search", "FULLTEXT", "term", hfad.TV(hfad.TagFulltext, "hierarchical")); err != nil {
		return nil, err
	}
	if err := row("Manual", "USER", "logname", hfad.TV(hfad.TagUser, "margo")); err != nil {
		return nil, err
	}
	if err := row("Manual", "UDEF", "annotations", hfad.TV(hfad.TagUDef, "annotation:hotos-draft")); err != nil {
		return nil, err
	}
	if err := row("Applications", "APP+USER", "app, logname",
		hfad.TV(hfad.TagApp, "latex"), hfad.TV(hfad.TagUser, "margo")); err != nil {
		return nil, err
	}
	if err := row("FastPath", "ID", "object identifier", hfad.TV(hfad.TagID, fmt.Sprintf("%d", oid))); err != nil {
		return nil, err
	}

	return &Result{
		ID:     "T1",
		Claim:  "Table 1: callers use different tags for different kinds of values; all resolve through one naming API.",
		Tables: []*stats.Table{tbl},
		Notes:  []string{"every row resolved to the same object, demonstrating multiple coexisting names"},
	}, nil
}

// RunF1 walks Figure 1 end to end — POSIX layer, naming and access
// interfaces, index stores, OSD, extents, stable storage — reporting the
// work each layer performed, demonstrating the layering is real and
// observable rather than a diagram.
func RunF1(s Scale) (*Result, error) {
	st, sim, err := newHFAD(devBlocks(s, 1<<14, 1<<15), blockdev.DefaultHDD(), hfad.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	vol := st.Volume()

	tbl := stats.NewTable("Figure 1 — one request traversing every layer",
		"step", "layer", "evidence")

	// 1. POSIX shim: create a file by path.
	pfs, err := st.POSIX()
	if err != nil {
		return nil, err
	}
	if err := pfs.MkdirAll("/inbox", 0o755); err != nil {
		return nil, err
	}
	if err := pfs.WriteFile("/inbox/mail.txt", nil, 0o644); err != nil {
		return nil, err
	}
	m, err := pfs.Stat("/inbox/mail.txt")
	if err != nil {
		return nil, err
	}
	tbl.AddRow(1, "POSIX shim", fmt.Sprintf("path /inbox/mail.txt -> POSIX/P lookup -> OID %d", m.OID))

	// 2. Naming interface: tag and a full-text name.
	if err := st.Tag(m.OID, hfad.TagUser, "margo"); err != nil {
		return nil, err
	}
	obj, err := st.OpenObject(m.OID)
	if err != nil {
		return nil, err
	}
	defer obj.Close()
	if err := obj.Append([]byte("meeting notes: buddy allocators and byte-level extents")); err != nil {
		return nil, err
	}
	if err := st.IndexContent(m.OID); err != nil {
		return nil, err
	}
	ids, err := st.Find(hfad.TV(hfad.TagFulltext, "buddy"), hfad.TV(hfad.TagUser, "margo"))
	if err != nil {
		return nil, err
	}
	tbl.AddRow(2, "naming interfaces", fmt.Sprintf("FULLTEXT/buddy ∧ USER/margo -> %v", ids))

	// 3. Index stores: registry contents.
	tbl.AddRow(3, "index stores", fmt.Sprintf("registered tags: %v", vol.Registry().Tags()))

	// 4. Access interfaces: byte-level insert through the OSD.
	if err := obj.InsertAt(15, []byte("(hFAD) ")); err != nil {
		return nil, err
	}
	head := make([]byte, 28)
	if _, err := obj.ReadAt(head, 0); err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	tbl.AddRow(4, "access interfaces", fmt.Sprintf("insert at 15 -> %q", string(head)))

	// 5. OSD + extents.
	tbl.AddRow(5, "OSD / extents", fmt.Sprintf("object %d: %d bytes in %d extents", m.OID, obj.Size(), obj.ExtentCount()))

	// 6. Stable storage.
	d := sim.Stats()
	tbl.AddRow(6, "stable storage", fmt.Sprintf("%d reads, %d writes, %s virtual device time",
		d.Reads, d.Writes, d.VirtualTime.Round(1000)))

	// Registry extensibility: image plug-in answers an open question.
	px := make([]byte, 64*64)
	for i := range px {
		px[i] = byte(i % 251)
	}
	bm, err := index.EncodeBitmap(64, 64, px)
	if err != nil {
		return nil, err
	}
	if err := st.TagBytes(m.OID, hfad.TagImage, bm); err != nil {
		return nil, err
	}
	near, err := vol.Images().LookupNear(bm, 2)
	if err != nil {
		return nil, err
	}
	tbl.AddRow(7, "plug-in index (§4)", fmt.Sprintf("IMAGE signature lookup -> %v", near))

	return &Result{
		ID:     "F1",
		Claim:  "Figure 1: index stores combined with arbitrary-length extents provide the primary means of accessing stable storage; a POSIX interface is implemented on top.",
		Tables: []*stats.Table{tbl},
	}, nil
}
