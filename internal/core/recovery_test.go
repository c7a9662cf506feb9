package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/btree"
	"repro/internal/buddy"
	"repro/internal/extent"
	"repro/internal/fulltext"
	"repro/internal/index"
	"repro/internal/osd"
)

// assertRecoveryExact is the recovery oracle: Open now restores the
// allocator from a snapshot slot plus the log tail instead of walking the
// volume, so after every crash-recovery open the tests hold the result to
// the walk's definition — free list for free list — and to a clean fsck.
func assertRecoveryExact(t testing.TB, v *Volume) {
	t.Helper()
	if err := v.VerifyAllocator(); err != nil {
		t.Fatalf("recovered allocator is not the reachability walk's (%s): %v", v.Recovery(), err)
	}
	rep, err := v.Check()
	if err != nil {
		t.Fatalf("fsck after recovery: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("fsck problems after recovery (%s): %v", v.Recovery(), rep.Problems)
	}
}

// crashCopy is a power cut: the bytes on dev at this instant, on a device
// of their own. The crashed volume keeps running on the original until
// the test drops it.
func crashCopy(t testing.TB, dev *blockdev.MemDevice) *blockdev.MemDevice {
	t.Helper()
	img := blockdev.NewMem(dev.NumBlocks(), dev.BlockSize())
	if err := img.RestoreFrom(dev.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return img
}

// mustOpenExact opens a crash image, holds the result to the recovery
// oracle, and returns it.
func mustOpenExact(t testing.TB, dev blockdev.Device) *Volume {
	t.Helper()
	v, err := Open(dev, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	assertRecoveryExact(t, v)
	return v
}

// populate creates n empty objects (a row each) in batches and returns
// their ids.
func populate(t testing.TB, v *Volume, n int) []OID {
	t.Helper()
	oids := make([]OID, 0, n)
	for len(oids) < n {
		err := v.Batch(func(b *Batch) error {
			for i := 0; i < 500 && len(oids) < n; i++ {
				o, err := b.CreateObject("pop")
				if err != nil {
					return err
				}
				oids = append(oids, o.OID())
				o.Close()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return oids
}

func fill(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i%31)
	}
	return p
}

// TestReopenConsistentVolumeLogsNothing pins the recovery-wedges-its-own-
// log defect: an extent recount (since deleted) ended in an unconditional
// header write, and Open ran it with first-touch base images on, so a
// crash reopen logged one 4 KiB image per object — 8 MB for 2 000
// objects, and past 4 000 it filled the log and returned a wedged volume.
// Reopening a crashed, consistent volume must log nothing and dirty
// nothing, and so must one with a Tag in the tail: no tree keeps a count
// to heal.
func TestReopenConsistentVolumeLogsNothing(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, v, 6000)
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	reopen := func(label string, maxPages int64) {
		t.Helper()
		v2 := mustOpenExact(t, crashCopy(t, mem))
		defer v2.Close()
		if n := v2.WAL().Stats().BytesLogged; n > maxPages*(4096+128) {
			t.Errorf("%s: recovery logged %d bytes", label, n)
		}
		if n := v2.Pager().Stats().Writebacks; n > maxPages {
			t.Errorf("%s: recovery wrote %d pages back", label, n)
		}
		if n := v2.Pager().Stats().Dirty; n != 0 {
			t.Errorf("%s: recovery left %d dirty pages", label, n)
		}
		if h := v2.Health(); h.WALWedged || h.Degraded {
			t.Errorf("%s: recovery left the volume wedged/degraded: %+v", label, h)
		}
	}
	reopen("empty tail", 0)
	if err := v.AddName(oids[7], "UDEF", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	reopen("one Tag in the tail", 0)
}

// TestAckedObjectBytesSurviveCrash pins the two sidecar defects recorded
// in benchmark/README.md: object bytes go to their blocks in place,
// outside the log, so a data block written after the last checkpoint was
// verified after the crash against the sum the sidecar held at that
// checkpoint, and an acknowledged append read back ErrCorrupt.
func TestAckedObjectBytesSurviveCrash(t *testing.T) {
	t.Run("append into an extent's slack", func(t *testing.T) {
		mem := blockdev.NewMem(1<<13, blockdev.DefaultBlockSize)
		v, err := Create(mem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := v.OSD.CreateObject("slack", osd.ModeRegular)
		if err != nil {
			t.Fatal(err)
		}
		want := fill(300, 1)
		if err := obj.Append(want); err != nil {
			t.Fatal(err)
		}
		if err := v.Sync(); err != nil {
			t.Fatal(err)
		}
		more := fill(200, 9)
		if err := obj.Append(more); err != nil { // acknowledged
			t.Fatal(err)
		}
		want = append(want, more...)
		v2 := mustOpenExact(t, crashCopy(t, mem))
		defer v2.Close()
		if got := readExtObj(t, v2, obj.OID(), len(want)); !bytes.Equal(got, want) {
			t.Fatal("acknowledged append diverged after the crash")
		}
	})
	t.Run("overwrite in place", func(t *testing.T) {
		// No leaf cell changes: the overwrite's own record must name the run.
		mem := blockdev.NewMem(1<<13, blockdev.DefaultBlockSize)
		v, err := Create(mem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := v.OSD.CreateObject("inplace", osd.ModeRegular)
		if err != nil {
			t.Fatal(err)
		}
		want := fill(3*4096+500, 1)
		if err := obj.Append(want); err != nil {
			t.Fatal(err)
		}
		if err := v.Sync(); err != nil { // the sidecar holds the old bytes' sums
			t.Fatal(err)
		}
		// A partial block, then whole blocks plus a tail: both legs of
		// writeExtentData.
		for _, w := range []struct{ off, n int }{{100, 300}, {4096, 2*4096 + 77}} {
			p := fill(w.n, byte(90+w.off%7))
			if err := obj.WriteAt(p, uint64(w.off)); err != nil { // acknowledged
				t.Fatal(err)
			}
			copy(want[w.off:], p)
		}
		v2 := mustOpenExact(t, crashCopy(t, mem))
		defer v2.Close()
		if got := readExtObj(t, v2, obj.OID(), len(want)); !bytes.Equal(got, want) {
			t.Fatal("acknowledged overwrite diverged after the crash")
		}
	})
	t.Run("new extent on a block freed earlier", func(t *testing.T) {
		mem := blockdev.NewMem(1<<13, blockdev.DefaultBlockSize)
		v, err := Create(mem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		old, err := v.OSD.CreateObject("old", osd.ModeRegular)
		if err != nil {
			t.Fatal(err)
		}
		if err := old.Append(fill(3*4096, 3)); err != nil {
			t.Fatal(err)
		}
		var oldRun uint64
		if err := old.ExtentTree().Extents(func(_ uint64, e extent.Extent) bool { oldRun = e.Sector; return false }); err != nil {
			t.Fatal(err)
		}
		if err := v.Sync(); err != nil { // the sidecar now holds the old bytes' sums
			t.Fatal(err)
		}
		if err := v.DeleteObject(old.OID()); err != nil {
			t.Fatal(err)
		}
		if err := v.Sync(); err != nil { // limbo released: the run is reusable
			t.Fatal(err)
		}
		// Lowest address first: new payloads land on the freed run.
		want := map[OID][]byte{}
		reused := false
		for i := 0; i < 4; i++ {
			o, err := v.OSD.CreateObject("new", osd.ModeRegular)
			if err != nil {
				t.Fatal(err)
			}
			want[o.OID()] = fill(700+i, byte(20+i))
			if err := o.Append(want[o.OID()]); err != nil { // acknowledged
				t.Fatal(err)
			}
			if err := o.ExtentTree().Extents(func(_ uint64, e extent.Extent) bool {
				reused = reused || (e.Sector >= oldRun && e.Sector < oldRun+4*buddy.SectorsPerBlock)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			o.Close()
		}
		if !reused {
			t.Fatal("no new payload landed on the freed run; the test no longer tests the reuse")
		}
		v2 := mustOpenExact(t, crashCopy(t, mem))
		defer v2.Close()
		for oid, w := range want {
			if got := readExtObj(t, v2, oid, len(w)); !bytes.Equal(got, w) {
				t.Fatalf("object %d: acknowledged payload diverged after the crash", oid)
			}
		}
	})
}

// TestRecoveryCheckpointCutEverywhere cuts the power at every write of a
// checkpoint — page flush, sidecar, snapshot slot, log reset — tearing
// the write it lands on. Between the slot write and the log reset the
// log still carries the old fence, so the older slot must be picked and
// the whole generation replayed onto it; in every case recovery must be
// exact and every acknowledged byte must be there.
func TestRecoveryCheckpointCutEverywhere(t *testing.T) {
	for cut := int64(0); ; cut++ {
		mem := blockdev.NewMem(1<<11, blockdev.DefaultBlockSize)
		fd := blockdev.NewFault(mem)
		v, err := Create(fd, Options{ExtentConfig: extent.Config{MaxExtentBytes: 8192}})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := v.OSD.CreateObject("ckpt", osd.ModeRegular)
		if err != nil {
			t.Fatal(err)
		}
		want := fill(30000, 5)
		if err := obj.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		if err := v.Sync(); err != nil { // generation 1: slot A
			t.Fatal(err)
		}
		if err := obj.TruncateRange(9000, 12000); err != nil { // frees into limbo
			t.Fatal(err)
		}
		want = append(append([]byte(nil), want[:9000]...), want[21000:]...)
		tail := fill(5000, 77)
		if err := obj.Append(tail); err != nil {
			t.Fatal(err)
		}
		want = append(want, tail...)

		fd.SetTornWrites(true)
		fd.FailAfterWrites(cut)
		serr := v.Sync() // generation 2's checkpoint, cut short
		fd.Disarm()

		v2 := mustOpenExact(t, crashCopy(t, mem))
		if got := readExtObj(t, v2, obj.OID(), len(want)); !bytes.Equal(got, want) {
			t.Fatalf("cut at write %d: acknowledged content diverged", cut)
		}
		if why := v2.Recovery().AllocWalk; why != "" {
			t.Fatalf("cut at write %d: allocator rebuilt by walk (%s); one of the two slots must serve", cut, why)
		}
		v2.Close()
		if serr == nil {
			if cut < 4 {
				t.Fatalf("checkpoint completed in %d writes; the sweep covered nothing", cut)
			}
			return // the checkpoint ran to completion: every write was cut once
		}
	}
}

// TestRecoveryTornSlotFallsBackToWalk: a slot that fails its CRC is not a
// slot. If it was the one the log generation belongs to, nothing on the
// device vouches for the allocator and the walk takes over — repaired,
// not fatal; the other slot, damaged, changes nothing.
func TestRecoveryTornSlotFallsBackToWalk(t *testing.T) {
	mem := blockdev.NewMem(1<<13, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, v, 50)
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	obj, err := v.OSD.OpenObject(oids[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(fill(9000, 2)); err != nil {
		t.Fatal(err)
	}
	cur := v.snapCur
	flip := func(img *blockdev.MemDevice, slot int) {
		buf := make([]byte, img.BlockSize())
		blk := v.snapStart + uint64(slot)*v.slotBlocks()
		if err := img.ReadBlock(blk, buf); err != nil {
			t.Fatal(err)
		}
		buf[slotHdrSize+40] ^= 0x10
		if err := img.WriteBlock(blk, buf); err != nil {
			t.Fatal(err)
		}
	}
	img := crashCopy(t, mem)
	flip(img, 1-cur)
	v2 := mustOpenExact(t, img)
	if why := v2.Recovery().AllocWalk; why != "" {
		t.Fatalf("damage to the slot the generation does not use forced a walk: %s", why)
	}
	v2.Close()

	img = crashCopy(t, mem)
	flip(img, cur)
	v3 := mustOpenExact(t, img)
	defer v3.Close()
	if v3.Recovery().AllocWalk == "" {
		t.Fatal("the generation's slot fails its CRC, yet recovery did not fall back to the walk")
	}
	if got := readExtObj(t, v3, oids[3], 9000); !bytes.Equal(got, fill(9000, 2)) {
		t.Fatal("content diverged")
	}
}

// TestRecoveryCutDuringWriteHome cuts the power during recovery itself:
// at every write Open makes (replay's write-home, the closing
// checkpoint's slot and log reset). The interrupted Open
// fails; the next one recovers from whatever it left, exactly.
func TestRecoveryCutDuringWriteHome(t *testing.T) {
	mem := blockdev.NewMem(1<<11, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{ExtentConfig: extent.Config{MaxExtentBytes: 8192}})
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, v, 40)
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	want := map[OID][]byte{}
	for i, oid := range oids[:12] {
		obj, err := v.OSD.OpenObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		want[oid] = fill(3000+i*900, byte(i))
		if err := obj.Append(want[oid]); err != nil {
			t.Fatal(err)
		}
		obj.Close()
	}
	if err := v.DeleteObject(oids[20]); err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, mem)
	for cut := int64(0); ; cut++ {
		img := crashCopy(t, crash)
		fd := blockdev.NewFault(img)
		fd.SetTornWrites(true)
		fd.FailAfterWrites(cut)
		vi, err := Open(fd, Options{})
		if err == nil {
			if cut < 4 {
				t.Fatalf("recovery completed in %d writes; the sweep covered nothing", cut)
			}
			return // recovery ran to completion: every write was cut once
		}
		if vi != nil {
			t.Fatal("failed Open returned a volume")
		}
		v2 := mustOpenExact(t, img)
		for oid, w := range want {
			if got := readExtObj(t, v2, oid, len(w)); !bytes.Equal(got, w) {
				t.Fatalf("cut at recovery write %d: object %d diverged", cut, oid)
			}
		}
		if _, err := v2.OSD.Stat(oids[20]); err == nil {
			t.Fatalf("cut at recovery write %d: deleted object is back", cut)
		}
		v2.Close()
	}
}

// loserImage runs fn inside a Batch whose dirty set outgrows a small
// cache, so the pager steals — chunk-flushing the open batch's records —
// and takes the crash image from inside the batch: its records are in the
// log without a commit, a loser chain.
// fillPaged gives o, inside b, extent.R+1 one-block extents: so many that
// its root's cells move into an extent page below its row, which the
// batch dirties.
func fillPaged(b *Batch, o *osd.Object, seed byte) error {
	for j := 0; j <= extent.R; j++ {
		if err := o.InsertAtDeferred(b.op, 0, fill(4096, seed+byte(j))); err != nil {
			return err
		}
	}
	return nil
}

func loserImage(t *testing.T, v *Volume, mem *blockdev.MemDevice, step func(b *Batch, i int) error) *blockdev.MemDevice {
	t.Helper()
	var img *blockdev.MemDevice
	flushed := v.Pager().Stats().ChunkFlushes
	err := v.Batch(func(b *Batch) error {
		for i := 0; ; i++ {
			if err := step(b, i); err != nil {
				return err
			}
			if v.Pager().Stats().ChunkFlushes > flushed && i%16 == 15 {
				img = crashCopy(t, mem)
				return nil
			}
			if i > 1<<16 {
				return fmt.Errorf("the batch never forced a steal")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRecoveryLosers: crashes that leave loser chains. A chain that only
// named objects carries no allocator records — the splits its inserts
// caused are system transactions of their own. A chain whose operation
// created objects and appended to them does: every run it took is named
// by an inverse in the chain (the drop of each tree it created), so its
// rollback hands them back. Either way the allocator is restored from the
// slot, the rollback runs on top of it, the result is exact — with no
// walk — and the loser is gone. With both slots gone the walk restores
// the allocator from the loser's crash state instead, and the rollback
// on top of it must be as exact: a tree the loser created whose link
// never reached the log is unreachable yet the loser's to free, and a
// tree it destroyed whose unlink never did is reachable yet its runs are
// the loser's to take back.
func TestRecoveryLosers(t *testing.T) {
	setup := func(t *testing.T) (*Volume, *blockdev.MemDevice, []OID) {
		mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
		v, err := Create(mem, Options{CachePages: 64, WALBlocks: 4096})
		if err != nil {
			t.Fatal(err)
		}
		oids := populate(t, v, 300)
		if err := v.Sync(); err != nil {
			t.Fatal(err)
		}
		// A committed allocation in the tail, beside the loser.
		obj, err := v.OSD.OpenObject(oids[0])
		if err != nil {
			t.Fatal(err)
		}
		defer obj.Close()
		if err := obj.Append(fill(6000, 4)); err != nil {
			t.Fatal(err)
		}
		return v, mem, oids
	}
	t.Run("names only", func(t *testing.T) {
		v, mem, oids := setup(t)
		img := loserImage(t, v, mem, func(b *Batch, i int) error {
			// AddName buffers index puts until the batch commits; write the
			// reverse and forward entries now, as single operations do.
			return v.addNameDeferred(b.op, oids[i%len(oids)], "UDEF", []byte(fmt.Sprintf("loser-%06d", i)))
		})
		v2 := mustOpenExact(t, img)
		defer v2.Close()
		rep := v2.Recovery()
		if rep.Undo.Count == 0 {
			t.Fatalf("no loser chain in the image: %s", rep)
		}
		if rep.AllocWalk != "" {
			t.Fatalf("a loser that only named objects forced a walk (%s)", rep.AllocWalk)
		}
		if rep.Allocator.Count == 0 {
			t.Fatalf("the committed append beside the loser left no trace: %s", rep)
		}
		if got, err := v2.Resolve(TV("UDEF", "loser-000003")); err != nil || len(got) != 0 {
			t.Fatalf("the loser's names survived its rollback: %v, %v", got, err)
		}
		if got := readExtObj(t, v2, oids[0], 6000); !bytes.Equal(got, fill(6000, 4)) {
			t.Fatal("committed content diverged")
		}
	})
	t.Run("allocating", func(t *testing.T) {
		v, mem, oids := setup(t)
		var created []OID
		img := loserImage(t, v, mem, func(b *Batch, i int) error {
			o, err := b.CreateObject("loser")
			if err != nil {
				return err
			}
			defer o.Close()
			created = append(created, o.OID())
			return fillPaged(b, o, byte(i))
		})
		v2 := mustOpenExact(t, img)
		defer v2.Close()
		rep := v2.Recovery()
		if rep.Undo.Count == 0 {
			t.Fatalf("no loser chain in the image: %s", rep)
		}
		if rep.AllocWalk != "" || rep.AllocSlotLSN == 0 {
			t.Fatalf("a loser that allocated forced a walk: %s", rep)
		}
		for _, oid := range created {
			if _, err := v2.OSD.Stat(oid); err == nil {
				t.Fatalf("loser's object %d survived its rollback", oid)
			}
		}
		if got := readExtObj(t, v2, oids[0], 6000); !bytes.Equal(got, fill(6000, 4)) {
			t.Fatal("committed content diverged")
		}
		// Recovery's checkpoint left a slot for the result: crash again.
		v3 := mustOpenExact(t, crashCopy(t, img))
		defer v3.Close()
		if why := v3.Recovery().AllocWalk; why != "" {
			t.Fatalf("second recovery walked (%s): the first left no usable slot", why)
		}
	})
	t.Run("walking", func(t *testing.T) {
		v, mem, oids := setup(t)
		m, err := v.OSD.Stat(oids[0])
		if err != nil {
			t.Fatal(err)
		}
		img := loserImage(t, v, mem, func(b *Batch, i int) error {
			if i == 0 {
				none := func() ([]byte, []byte, bool, error) { return nil, nil, false, nil }
				if _, err := btree.Build(v.pg, v.ba, b.op, none); err != nil {
					return err
				}
				ext, err := extent.Open(v.pg, v.ba, m.Root, uint64(m.OID), v.opts.ExtentConfig, nil)
				if err != nil {
					return err
				}
				return ext.Destroy(b.op)
			}
			return v.addNameDeferred(b.op, oids[i%len(oids)], "UDEF", []byte(fmt.Sprintf("loser-%06d", i)))
		})
		zero := make([]byte, img.BlockSize())
		for slot := uint64(0); slot < 2; slot++ {
			if err := img.WriteBlock(v.snapStart+slot*v.slotBlocks(), zero); err != nil {
				t.Fatal(err)
			}
		}
		v2 := mustOpenExact(t, img)
		defer v2.Close()
		if rep := v2.Recovery(); rep.AllocWalk == "" || rep.Undo.Count == 0 {
			t.Fatalf("want a walk and a loser: %s", rep)
		}
		if got := readExtObj(t, v2, oids[0], 6000); !bytes.Equal(got, fill(6000, 4)) {
			t.Fatal("the tree the loser destroyed did not come back whole")
		}
	})
}

// TestRecoveryCutDuringLoserUndo cuts the power at every write of a
// recovery that rolls losers back — replay's write-home, the undo's
// compensation commits (which resolve the chains: the next open no longer
// sees a loser), the closing checkpoint's flush, slot and log reset. The
// allocator must be exact at every cut: once a chain is resolved, the
// next open trusts a slot plus a tail that holds the loser's allocations
// and frees and its rollback's — the rollback must have handed back
// exactly what the loser took (trees it created, runs it appended) and
// taken back exactly what it gave up (objects it deleted, segments its
// compaction dropped).
func TestRecoveryCutDuringLoserUndo(t *testing.T) {
	steps := map[string]func(v *Volume, oids []OID) func(b *Batch, i int) error{
		"names only": func(v *Volume, oids []OID) func(b *Batch, i int) error {
			return func(b *Batch, i int) error {
				return v.addNameDeferred(b.op, oids[i%len(oids)], "UDEF", []byte(fmt.Sprintf("loser-%06d", i)))
			}
		},
		"allocating": func(v *Volume, oids []OID) func(b *Batch, i int) error {
			return func(b *Batch, i int) error {
				o, err := b.CreateObject("loser")
				if err != nil {
					return err
				}
				defer o.Close()
				return fillPaged(b, o, byte(i))
			}
		},
		"deleting": func(v *Volume, oids []OID) func(b *Batch, i int) error {
			return func(b *Batch, i int) error {
				if i >= len(oids) {
					return v.addNameDeferred(b.op, oids[i%len(oids)], "UDEF", []byte(fmt.Sprintf("loser-%06d", i)))
				}
				if err := v.removeAllNamesDeferred(b.op, oids[i]); err != nil {
					return err
				}
				return v.OSD.DeleteObjectDeferred(b.op, oids[i])
			}
		},
		"fulltext": func(v *Volume, oids []OID) func(b *Batch, i int) error {
			// Committed segments for the loser's compactions to drop. A
			// segment is built clean, so the loser also fills an object
			// every eighth step: its extent pages are the dirty set that
			// forces the steal putting the loser in the log.
			for i, oid := range oids[:6] {
				if err := v.AddName(oid, index.TagFulltext, []byte(fmt.Sprintf("kept%d shared", i))); err != nil {
					t.Fatal(err)
				}
			}
			return func(b *Batch, i int) error {
				text := fmt.Sprintf("loser%06d shared filler%d", i, i%7)
				if err := v.addNameDeferred(b.op, oids[i%len(oids)], index.TagFulltext, []byte(text)); err != nil {
					return err
				}
				if i%8 != 7 {
					return nil
				}
				o, err := b.CreateObject("loser")
				if err != nil {
					return err
				}
				defer o.Close()
				return fillPaged(b, o, byte(i))
			}
		},
	}
	for name, mk := range steps {
		t.Run(name, func(t *testing.T) {
			mem := blockdev.NewMem(1<<11, blockdev.DefaultBlockSize)
			v, err := Create(mem, Options{CachePages: 64, WALBlocks: 512,
				FulltextConfig: fulltext.Config{FlushDocs: 2, MaxSegments: 2}})
			if err != nil {
				t.Fatal(err)
			}
			oids := populate(t, v, 100)
			if err := v.Sync(); err != nil {
				t.Fatal(err)
			}
			step := mk(v, oids)
			ft0 := v.Fulltext().Inner().Stats()
			crash := loserImage(t, v, mem, step)
			if ft := v.Fulltext().Inner().Stats(); name == "fulltext" && (ft.Flushes == ft0.Flushes || ft.Compactions == ft0.Compactions) {
				t.Fatalf("the loser did not both flush and compact the index: %+v", ft)
			}
			// The rollbacks that strip names are some 300 writes, most of
			// them log blocks of one compensation commit: sample those.
			stride := int64(1)
			if name == "names only" || name == "deleting" {
				stride = 4
			}
			if raceEnabled {
				stride *= 6 // the detector is after the races, not the cut points
			}
			for cut := int64(0); ; cut += stride {
				img := crashCopy(t, crash)
				fd := blockdev.NewFault(img)
				fd.SetTornWrites(true)
				fd.FailAfterWrites(cut)
				vi, err := Open(fd, Options{})
				if err == nil {
					if vi.Recovery().Undo.Count == 0 {
						t.Fatalf("no loser chain in the image: %s", vi.Recovery())
					}
					if cut < 8 {
						t.Fatalf("recovery completed in %d writes; the sweep covered nothing", cut)
					}
					return // recovery ran to completion: every write was cut
				}
				v2, err := Open(img, Options{})
				if err != nil {
					t.Fatalf("cut at recovery write %d: reopen: %v", cut, err)
				}
				if err := v2.VerifyAllocator(); err != nil {
					t.Fatalf("cut at recovery write %d: %v (%s)", cut, err, v2.Recovery())
				}
				if got, err := v2.Resolve(TV("UDEF", "loser-000003")); err != nil || len(got) != 0 {
					t.Fatalf("cut at recovery write %d: the loser's names survived: %v, %v", cut, got, err)
				}
				if got, err := v2.Resolve(TV(index.TagFulltext, "loser000003")); err != nil || len(got) != 0 {
					t.Fatalf("cut at recovery write %d: the loser's text is searchable: %v, %v", cut, got, err)
				}
				if name == "fulltext" {
					if got, err := v2.Resolve(TV(index.TagFulltext, "kept4")); err != nil || len(got) != 1 {
						t.Fatalf("cut at recovery write %d: committed text lost: %v, %v", cut, got, err)
					}
				}
				n := 0
				if err := v2.OSD.ForEach(func(osd.Meta) bool { n++; return true }); err != nil || n != len(oids) {
					t.Fatalf("cut at recovery write %d: %d objects (%v), want %d", cut, n, err, len(oids))
				}
			}
		})
	}
}

// TestRecoveryDeleteInTail: DeleteObject frees an object's runs and pages
// in the deleting operation's records, behind the one inverse that would
// take them all back; committed, the frees replay with the operation and
// the inverse is never run.
func TestRecoveryDeleteInTail(t *testing.T) {
	mem := blockdev.NewMem(1<<13, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{ExtentConfig: extent.Config{MaxExtentBytes: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, v, 20)
	for i, oid := range oids {
		obj, err := v.OSD.OpenObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Append(fill(2000+i*3000, byte(i))); err != nil {
			t.Fatal(err)
		}
		obj.Close()
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	free0 := v.Allocator().FreeBlocks()
	for _, oid := range oids[5:15] {
		if err := v.DeleteObject(oid); err != nil {
			t.Fatal(err)
		}
	}
	v2 := mustOpenExact(t, crashCopy(t, mem))
	defer v2.Close()
	rep := v2.Recovery()
	if rep.AllocWalk != "" || rep.Allocator.Count == 0 {
		t.Fatalf("deletes in the tail: %s", rep)
	}
	if got := v2.Allocator().FreeBlocks(); got <= free0 {
		t.Fatalf("free blocks %d after replaying ten deletes, %d before them", got, free0)
	}
	for i, oid := range oids {
		_, err := v2.OSD.Stat(oid)
		if gone := i >= 5 && i < 15; gone != (err != nil) {
			t.Fatalf("object %d: deleted=%v, stat error %v", oid, gone, err)
		}
	}
}

// TestRecoveryCostIsTheTail reopens two crashed volumes, one ten times
// the other, with the same log tail. Everything RecoveryReport counts is
// the same but the sidecar (sized with the device) and the log's bytes,
// which may differ by the width of the varint page and LSN deltas, at
// most a byte each per record on a volume ten times larger — the walk that made
// reopen proportional to the volume is gone — and so, within
// tallerTreeReads, is the number of blocks Open reads from the device:
// no phase walks a tree the tail did not touch. The same holds when the
// tail ends in a loser that allocated: its rollback hands its runs back
// on the restored allocator, with no walk.
func TestRecoveryCostIsTheTail(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("populates 22 000 objects on a 256 MiB device, single-threaded: nothing for the race detector but its memory")
	}
	// tallerTreeReads covers the object table's extra level at 20 000
	// objects: the tail's lookups descend through one more internal page,
	// read once and then cached.
	const tallerTreeReads = 2
	run := func(n int, loser bool) (RecoveryReport, int64) {
		mem := blockdev.NewMem(1<<16, blockdev.DefaultBlockSize)
		v, err := Create(mem, Options{WALBlocks: 4096})
		if err != nil {
			t.Fatal(err)
		}
		oids := populate(t, v, n)
		if err := v.Sync(); err != nil {
			t.Fatal(err)
		}
		// Neither size takes the log past its high-water mark, so the log
		// has seen two checkpoints: the format's and Sync's. A commit that
		// crosses the mark checkpoints before it returns, so no checkpoint
		// asked for before Sync runs after it and cuts the tail in two.
		if ckpts := v.WAL().Stats().Checkpoints; ckpts != 2 {
			t.Fatalf("%d objects: %d checkpoints before the tail, want 2", n, ckpts)
		}
		// The tail: one payload each into five existing objects, then an
		// in-place overwrite of each. No index takes a new key. The rows
		// grow, and the ascending load left their leaf full, so one of
		// them splits it. That holds at both sizes, so the same records
		// are logged whatever the volume holds: five data runs and the
		// split's page make six allocator records.
		for i, oid := range oids[:5] {
			obj, err := v.OSD.OpenObject(oid)
			if err != nil {
				t.Fatal(err)
			}
			if err := obj.Append(fill(1500, byte(i))); err != nil {
				t.Fatal(err)
			}
			if err := obj.WriteAt([]byte("over"), 10); err != nil {
				t.Fatal(err)
			}
			obj.Close()
		}
		if loser {
			// L appends to a sixth object and never commits; a neighbour's
			// append to the same object commits, and since its records build
			// on L's leaf, its commit chunk-flushes L's into the log first.
			obj, err := v.OSD.OpenObject(oids[5])
			if err != nil {
				t.Fatal(err)
			}
			L := v.pg.NewOp(sysAppender{v})
			if _, err := obj.AppendDeferred(L, fill(3000, 7)); err != nil {
				t.Fatal(err)
			}
			if err := obj.Append(fill(500, 8)); err != nil {
				t.Fatal(err)
			}
		}
		// The crash: v is abandoned, cache and all, and the
		// device reopened in place (a copy of 256 MiB per run is the test's
		// whole footprint).
		sim := blockdev.NewSim(mem, nil)
		v2, err := Open(sim, Options{})
		if err != nil {
			t.Fatalf("recovery open: %v", err)
		}
		reads := sim.Stats().Reads
		defer v2.Close()
		assertRecoveryExact(t, v2)
		if loser {
			if got := readExtObj(t, v2, oids[5], 500); !bytes.Equal(got, fill(500, 8)) {
				t.Fatal("the loser's rollback took the committed append with it")
			}
		}
		return v2.Recovery(), reads
	}
	counts := func(r RecoveryReport) [6]int64 {
		return [6]int64{r.LogScan.Count, r.Replay.Count, r.PagesHome, r.Allocator.Count,
			r.Undo.Count, r.Checkpoint.Count}
	}
	for _, loser := range []bool{false, true} {
		small, smallReads := run(2000, loser)
		big, bigReads := run(20000, loser)
		t.Logf("loser=%v\n  2 000: %d device reads, %s\n 20 000: %d device reads, %s", loser, smallReads, small, bigReads, big)
		if counts(small) != counts(big) {
			t.Fatalf("loser=%v: recovery counts differ with the volume's size:\n  2 000: %s\n 20 000: %s", loser, small, big)
		}
		if d := big.LogBytes - small.LogBytes; d < 0 || d > 2*big.LogScan.Count {
			t.Fatalf("loser=%v: a tail of %d records is %d B at 2 000 objects, %d B at 20 000", loser, big.LogScan.Count, small.LogBytes, big.LogBytes)
		}
		if bigReads > smallReads+tallerTreeReads {
			t.Fatalf("loser=%v: Open read %d blocks at 20 000 objects, %d at 2 000: more than %d apart", loser, bigReads, smallReads, tallerTreeReads)
		}
		if small.AllocWalk != "" || big.AllocWalk != "" {
			t.Fatalf("loser=%v: recovery walked: %s", loser, small)
		}
		switch {
		case !loser && (small.Allocator.Count != 6 || small.Undo.Count != 0):
			t.Fatalf("unexpected recovery: %s", small)
		case loser && (small.Allocator.Count <= 6 || small.Undo.Count != 1):
			t.Fatalf("unexpected recovery with a loser: %s", small)
		}
	}
}

// TestRecoverLoserKeepsObjectCount: the object table keeps no count of
// its own, so the count a rolled-back loser leaves is whatever its leaves
// hold. The loser deletes ten committed objects, creates twenty and
// appends to a committed object; a neighbour's committed append to that
// object builds on the loser's leaf and so brings all of the loser's
// records into the log. After the crash the count is the committed one.
func TestRecoverLoserKeepsObjectCount(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{WALBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, v, 300)
	if err := v.DeleteObject(oids[0]); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	L := v.pg.NewOp(sysAppender{v})
	for _, oid := range oids[1:11] {
		if err := v.OSD.DeleteObjectDeferred(L, oid); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		obj, err := v.OSD.CreateObjectDeferred(L, "loser", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		obj.Close()
	}
	if got := v.OSD.Stats().Objects; got != 309 {
		t.Fatalf("live count with the loser open = %d, want 309", got)
	}
	obj, err := v.OSD.OpenObject(oids[20])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.AppendDeferred(L, fill(3000, 7)); err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(fill(500, 8)); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	v2 := mustOpenExact(t, mem)
	defer v2.Close()
	if rep := v2.Recovery(); rep.Undo.Count != 1 {
		t.Fatalf("no loser in the log: %s", rep)
	}
	if got := v2.OSD.Stats().Objects; got != 299 {
		t.Fatalf("recovered %d objects, want the 299 committed", got)
	}
	for _, oid := range oids[1:11] {
		if _, err := v2.OSD.Stat(oid); err != nil {
			t.Fatalf("committed object %d lost: %v", oid, err)
		}
	}
}

// TestRecoveryReportEveryFieldMoves: one crash that exercises every
// phase, and each field of the report must say so.
func TestRecoveryReportEveryFieldMoves(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{CachePages: 64, WALBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if rep := v.Recovery(); rep != (RecoveryReport{}) {
		t.Fatalf("a created volume reports a recovery: %s", rep)
	}
	oids := populate(t, v, 300)
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	obj, err := v.OSD.OpenObject(oids[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(fill(6000, 4)); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	img := loserImage(t, v, mem, func(b *Batch, i int) error {
		return v.addNameDeferred(b.op, oids[i%len(oids)], "UDEF", []byte(fmt.Sprintf("loser-%06d", i)))
	})
	v2 := mustOpenExact(t, img)
	rep := v2.Recovery()
	for _, f := range []struct {
		name string
		p    RecoveryPhase
	}{
		{"SidecarLoad", rep.SidecarLoad}, {"LogScan", rep.LogScan}, {"Replay", rep.Replay},
		{"Allocator", rep.Allocator}, {"Undo", rep.Undo}, {"Checkpoint", rep.Checkpoint},
	} {
		if f.p.Count <= 0 || f.p.Duration <= 0 {
			t.Errorf("%s did not move: %+v", f.name, f.p)
		}
	}
	if rep.Clean || rep.LogBytes <= 0 || rep.PagesHome <= 0 || rep.AllocSlotLSN == 0 || rep.AllocWalk != "" || rep.Total <= 0 {
		t.Errorf("report: %s", rep)
	}
	if rep.LogScan.Count < rep.Replay.Count {
		t.Errorf("scanned %d records, replayed %d", rep.LogScan.Count, rep.Replay.Count)
	}
	// The same volume, closed and opened: the same reader restores the
	// slot Close wrote, and nothing is replayed.
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	v3, err := Open(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Close()
	assertRecoveryExact(t, v3)
	if rep := v3.Recovery(); !rep.Clean || rep.AllocWalk != "" || rep.Replay.Count != 0 {
		t.Errorf("clean open: %s", rep)
	}
}

// TestRecoverySnapshotOutgrowsSlot fragments the free space past what a snapshot
// slot holds (8 bytes per free chunk). The checkpoint must go through —
// failing it would leave a log that can never be reset and a volume that
// can never be opened — with both slots wiped, so the next crash is
// recovered by the walk; once the free space coalesces and the snapshot
// fits again, recovery is back on the slot.
func TestRecoverySnapshotOutgrowsSlot(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{SnapshotBlocks: 2}) // one-block slots: ~500 chunks
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, v, 3000)
	// A byte each gives every object a data run, which its delete frees.
	for i := 0; i < len(oids); i += 500 {
		err := v.Batch(func(b *Batch) error {
			for _, oid := range oids[i:min(i+500, len(oids))] {
				o, err := v.OSD.OpenObject(oid)
				if err != nil {
					return err
				}
				err = b.Append(o, []byte{1})
				o.Close()
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
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	if v.snapCur < 0 {
		t.Fatal("the unfragmented allocator did not fit a slot; the test no longer tests the transition")
	}
	capacity := int(v.slotBlocks())*mem.BlockSize() - slotHdrSize
	deleteEach := func(from, step int) {
		t.Helper()
		for i := from; i < len(oids); i += step {
			if err := v.DeleteObject(oids[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	deleteEach(0, 2) // every other object: isolated free runs
	if err := v.Sync(); err != nil {
		t.Fatalf("checkpoint with a snapshot too large for its slot: %v", err)
	}
	snap, err := v.Allocator().SnapshotReleased()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot %d bytes after deleting every other of %d objects, slot holds %d", len(snap), len(oids), capacity)
	if len(snap) <= capacity {
		t.Fatalf("snapshot of %d bytes still fits the slot (%d)", len(snap), capacity)
	}
	if h := v.Health(); h.Degraded || h.WALWedged || h.CheckpointFailures != 0 {
		t.Fatalf("oversize snapshot hurt the volume: %+v", h)
	}
	if used := v.WAL().Used(); used > uint64(mem.BlockSize()) {
		t.Fatalf("log not reset by the checkpoint: %d bytes used", used)
	}
	// The volume keeps working, crashes, and recovers by the walk — twice
	// in a row, since recovery's own checkpoint meets the same overflow.
	obj, err := v.OSD.OpenObject(oids[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(fill(9000, 6)); err != nil { // acknowledged
		t.Fatal(err)
	}
	img := crashCopy(t, mem)
	for round := 0; round < 2; round++ {
		v2 := mustOpenExact(t, img)
		if v2.Recovery().AllocWalk == "" {
			t.Fatalf("round %d: recovery trusted a slot that cannot describe the allocator: %s", round, v2.Recovery())
		}
		if got := readExtObj(t, v2, oids[1], 9001); !bytes.Equal(got, append([]byte{1}, fill(9000, 6)...)) {
			t.Fatalf("round %d: acknowledged content diverged", round)
		}
		if err := v2.AddName(oids[1], "UDEF", []byte(fmt.Sprintf("round-%d", round))); err != nil {
			t.Fatalf("round %d: recovered volume refuses mutations: %v", round, err)
		}
		img = crashCopy(t, img)
	}
	// A clean shutdown in this state leaves no slot either; the clean open
	// walks instead of failing.
	v3 := mustOpenExact(t, img)
	if err := v3.Close(); err != nil {
		t.Fatalf("close with an oversize snapshot: %v", err)
	}
	v4 := mustOpenExact(t, img)
	if rep := v4.Recovery(); !rep.Clean || rep.AllocWalk == "" {
		t.Fatalf("clean open after an oversize close: %s", rep)
	}

	// Back on the original: free the rest, the runs coalesce, the snapshot
	// fits, and a crash recovers from the slot again.
	deleteEach(1, 2)
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	if v.snapCur < 0 {
		t.Fatal("coalesced allocator still written to no slot")
	}
	v5 := mustOpenExact(t, crashCopy(t, mem))
	defer v5.Close()
	if why := v5.Recovery().AllocWalk; why != "" {
		t.Fatalf("snapshot fits again, yet recovery walked: %s", why)
	}
}
