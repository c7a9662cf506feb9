package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/osd"
	"repro/internal/pager"
)

// rightEdge returns the cell counts of tr's second-to-last and last
// leaves, read from their page headers (package btree's layout: type at
// byte 0, ncells at 2–3, next leaf at 8–15, previous leaf at 16–23).
func rightEdge(t testing.TB, v *Volume, tr *btree.Tree) [2]int {
	t.Helper()
	res, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[uint64]int)
	var last, prev uint64
	for _, pno := range res.AllPages {
		err := v.pg.With(pno, func(pg *pager.Page) error {
			d := pg.Data()
			if d[0] != 1 { // not a leaf
				return nil
			}
			cells[pno] = int(binary.LittleEndian.Uint16(d[2:]))
			if binary.LittleEndian.Uint64(d[8:]) == 0 {
				last, prev = pno, binary.LittleEndian.Uint64(d[16:])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if prev == 0 {
		t.Fatal("the tree has one leaf")
	}
	return [2]int{cells[prev], cells[last]}
}

// TestCrashAppendSplit cuts the power at every device write and sync of
// a batch whose one new object append-splits the full rightmost leaves
// of the object table and the reverse index, and of the checkpoint after
// it. Every cut recovers exactly, to the batch whole or not at all. A
// split the batch made leaves the left leaf every cell it held and the
// right leaf the batch's cell alone; after every cut, a later batch at
// the same edge succeeds and leaves Check clean. A last leg splits both
// trees by an operation that never commits: recovery redoes each split
// and not the cell, so each right leaf comes back empty, and a later put
// fills it.
func TestCrashAppendSplit(t *testing.T) {
	const owner, baseObjs = "edge", 400
	epoch := time.Unix(1_700_000_000, 0)
	opts := Options{Clock: func() time.Time { return epoch }}
	tailName := func(i int) []byte { return []byte(fmt.Sprintf("tail-%04d", i)) }
	body := []byte("the batch's document at the right edge")
	createOne := func(v *Volume) OID {
		obj, err := v.OSD.CreateObject(owner, osd.ModeRegular|0o644)
		if err != nil {
			t.Fatal(err)
		}
		obj.Close()
		return obj.OID()
	}

	// build formats a fresh device with baseObjs tagged objects, then
	// creates objs more one commit at a time and gives the last one names
	// names: the two steps that fill the rightmost leaves of the object
	// table and of the reverse index.
	var mem *blockdev.MemDevice
	build := func(objs, names int) (v *Volume, first, last OID) {
		mem = blockdev.NewMem(1<<12, blockdev.DefaultBlockSize)
		v, err := Create(mem, opts)
		if err != nil {
			t.Fatal(err)
		}
		err = v.Batch(func(b *Batch) error {
			for i := 0; i < baseObjs; i++ {
				obj, err := b.CreateObject(owner)
				if err != nil {
					return err
				}
				obj.Close()
				if i == 0 {
					first = obj.OID()
				}
				last = obj.OID()
				if err := b.Tag(last, index.TagUDef, fmt.Sprintf("base-%03d", i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < objs; i++ {
			last = createOne(v)
		}
		for i := 0; i < names; i++ {
			if err := v.AddName(last, index.TagUDef, tailName(i)); err != nil {
				t.Fatal(err)
			}
		}
		return v, first, last
	}
	// Probe how many steps of each kind leave the rightmost leaf full:
	// the step after them splits it.
	objs := 0
	v, _, _ := build(0, 0)
	for splits := v.OSD.MetaTree().Stats().Splits; ; objs++ {
		createOne(v)
		if v.OSD.MetaTree().Stats().Splits != splits {
			break
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	names := 0
	v, _, last := build(objs, 0)
	for splits := v.reverse.Stats().Splits; ; names++ {
		if err := v.AddName(last, index.TagUDef, tailName(names)); err != nil {
			t.Fatal(err)
		}
		if v.reverse.Stats().Splits != splits {
			break
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v, first, _ := build(objs, names)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	img := mem.Snapshot()
	v = mustOpenExact(t, mem)
	nObj, nRev := rightEdge(t, v, v.OSD.MetaTree())[1], rightEdge(t, v, v.reverse)[1]
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// edges holds both trees to the right edge an append split leaves:
	// the left leaf with every cell it held, the right one with right.
	edges := func(v *Volume, label string, right int) {
		t.Helper()
		if got, want := rightEdge(t, v, v.OSD.MetaTree()), [2]int{nObj, right}; got != want {
			t.Fatalf("%s: object table's last two leaves hold %v cells, want %v", label, got, want)
		}
		if got, want := rightEdge(t, v, v.reverse), [2]int{nRev, right}; got != want {
			t.Fatalf("%s: reverse index's last two leaves hold %v cells, want %v", label, got, want)
		}
	}
	// tail is the batch under test: one new object, with a body and one
	// name, at the right edge of both trees.
	tail := func(v *Volume) (oid OID, err error) {
		err = v.Batch(func(b *Batch) error {
			obj, err := b.CreateObject(owner)
			if err != nil {
				return err
			}
			defer obj.Close()
			oid = obj.OID()
			if err := b.Append(obj, body); err != nil {
				return err
			}
			return b.AddName(oid, index.TagUDef, tailName(9999))
		})
		return oid, err
	}

	var oid OID
	var acked bool
	var live *Volume
	run := func(v *Volume) {
		var err error
		live = v
		oid, err = tail(v)
		if acked = err == nil; acked {
			_ = v.Sync()
		}
	}
	ops := packCut(t, mem, img, -1, run)
	if !acked {
		t.Fatal("the batch failed on a healthy device")
	}
	edges(live, "the batch", 1)
	want := oid
	for limit := int64(0); limit <= ops; limit++ {
		packCut(t, mem, img, limit, run)
		v := mustOpenExact(t, mem)
		label := fmt.Sprintf("cut at %d", limit)
		_, err := v.OSD.Stat(want)
		survived := err == nil
		if !survived && (acked || !errors.Is(err, osd.ErrNotFound)) {
			t.Fatalf("%s: the batch's object: %v (acked %v)", label, err, acked)
		}
		n, err := v.reverse.CountPrefix(revPrefix(want), 0)
		if err != nil {
			t.Fatal(err)
		}
		if survived != (n == 1) {
			t.Fatalf("%s: the object survived %v with %d names", label, survived, n)
		}
		if survived {
			if got := readExtObj(t, v, want, len(body)); !bytes.Equal(got, body) {
				t.Fatalf("%s: the batch's object reads %q", label, got)
			}
			edges(v, label, 1)
		}
		if _, err := tail(v); err != nil {
			t.Fatalf("%s: a later batch at the edge: %v", label, err)
		}
		assertRecoveryExact(t, v)
		if survived {
			edges(v, label+", then a later batch", 2)
		} else {
			edges(v, label+", then a later batch", 1)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d cuts; the batch split leaves of %d and %d cells", ops+1, nObj, nRev)

	// The loser: L creates an object and puts its reverse key, splitting
	// both trees, and never commits. A neighbour rewrites a name it
	// already has, which splits nothing, and its commit makes the log
	// durable past both splits. Then the power fails.
	if err := mem.RestoreFrom(img); err != nil {
		t.Fatal(err)
	}
	v, err := Open(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	L := v.pg.NewOp(sysAppender{v})
	obj, err := v.OSD.CreateObjectDeferred(L, owner, osd.ModeRegular|0o644)
	if err != nil {
		t.Fatal(err)
	}
	obj.Close()
	if err := v.reverse.PutOp(L, revKey(obj.OID(), index.TagUDef, tailName(9999)), nil); err != nil {
		t.Fatal(err)
	}
	if err := v.AddName(first, index.TagUDef, []byte("base-000")); err != nil {
		t.Fatal(err)
	}
	v2 := mustOpenExact(t, crashCopy(t, mem))
	defer v2.Close()
	edges(v2, "the loser", 0)
	if _, err := tail(v2); err != nil {
		t.Fatalf("a batch into the empty right leaves: %v", err)
	}
	assertRecoveryExact(t, v2)
	edges(v2, "the loser, then a later batch", 1)
}

// TestCheckReportsLeafFill loads documents in batches as an ingest does:
// each with an APP and a UDEF name and its content indexed, so its
// reverse keys sort around its FULLTEXT one. Check reports one line per
// tree, and both trees that grow at their right edge, the object table
// and the reverse index, come out packed: byte-midpoint splits alone
// leave them near 0.5.
func TestCheckReportsLeafFill(t *testing.T) {
	v, _ := newVolume(t, Options{})
	defer v.Close()
	for batch := 0; batch < 20; batch++ {
		err := v.Batch(func(b *Batch) error {
			for i := 0; i < 100; i++ {
				obj, err := b.CreateObject("fill")
				if err != nil {
					return err
				}
				oid := obj.OID()
				err = b.Append(obj, []byte(fmt.Sprintf("document %d of batch %d", i, batch)))
				obj.Close()
				if err == nil {
					err = b.Tag(oid, index.TagApp, "fill")
				}
				if err == nil {
					err = b.Tag(oid, index.TagUDef, fmt.Sprintf("g%d", i%7))
				}
				if err == nil {
					err = b.IndexContent(oid)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rep, err := v.Check()
	if err != nil || !rep.Ok() {
		t.Fatalf("check: %v %v", err, rep.Problems)
	}
	fills := make(map[string]TreeFill)
	for _, tf := range rep.Trees {
		fills[tf.Name] = tf
	}
	if want := 4 + len(v.kvTrees) + len(v.ft.Inner().Trees()); len(rep.Trees) != want || len(fills) != want {
		t.Fatalf("%d tree lines (%d names), want %d", len(rep.Trees), len(fills), want)
	}
	for _, name := range []string{"object-table", "reverse"} {
		tf := fills[name]
		t.Logf("%s: %d leaves, fill %.3f", name, tf.Leaves, tf.Fill)
		if tf.Leaves < 10 || tf.Fill < 0.95 {
			t.Errorf("%s: %d leaves at fill %.3f, want ten or more at ≥ 0.95", name, tf.Leaves, tf.Fill)
		}
	}
}
