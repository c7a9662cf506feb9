package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/extent"
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
// the test drops it; its background checkpointer is stopped so it cannot
// outlive the "crash".
func crashCopy(t testing.TB, v *Volume, dev *blockdev.MemDevice) *blockdev.MemDevice {
	t.Helper()
	if v != nil {
		v.stopCheckpointer()
	}
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

// populate creates n small objects (a header and a root page each) in
// batches and returns their ids.
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
// log defect: extent.Tree.Recount ended in an unconditional header write,
// and Open runs it with first-touch base images on, so a crash reopen
// logged one 4 KiB image per object — 8 MB for 2 000 objects, and past
// 4 000 it filled the log and returned a wedged volume. Reopening a
// crashed, consistent volume must log nothing and dirty nothing; with one
// Tag in the tail it heals the two btree key counts that Tag moved (two
// header pages, two base images) and nothing that grows with the volume.
func TestReopenConsistentVolumeLogsNothing(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{Transactional: true})
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, v, 6000)
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	reopen := func(label string, maxPages int64) {
		t.Helper()
		v2 := mustOpenExact(t, crashCopy(t, v, mem))
		defer v2.Close()
		if n := v2.WAL().Stats().BytesLogged; n > maxPages*(4096+128) {
			t.Errorf("%s: recovery logged %d bytes", label, n)
		}
		if n := v2.Pager().Stats().Writebacks; n > maxPages {
			t.Errorf("%s: recovery wrote %d pages back", label, n)
		}
		if n := v2.Pager().DirtyCount(); n != 0 {
			t.Errorf("%s: recovery left %d dirty pages", label, n)
		}
		if h := v2.Health(); h.WALWedged || h.Degraded {
			t.Errorf("%s: recovery left the volume wedged/degraded: %+v", label, h)
		}
		if rep := v2.Recovery(); rep.ExtentRecount.Count != 0 {
			t.Errorf("%s: recounted %d extent trees", label, rep.ExtentRecount.Count)
		}
	}
	reopen("empty tail", 0)
	if err := v.AddName(oids[7], "UDEF", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	reopen("one Tag in the tail", 2)
}

// TestAckedObjectBytesSurviveCrash pins the two sidecar defects recorded
// in benchmark/README.md: object bytes go to their blocks in place,
// outside the log, so a data block written after the last checkpoint was
// verified after the crash against the sum the sidecar held at that
// checkpoint, and an acknowledged append read back ErrCorrupt.
func TestAckedObjectBytesSurviveCrash(t *testing.T) {
	t.Run("append into an extent's slack", func(t *testing.T) {
		mem := blockdev.NewMem(1<<13, blockdev.DefaultBlockSize)
		v, err := Create(mem, Options{Transactional: true})
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
		v2 := mustOpenExact(t, crashCopy(t, v, mem))
		defer v2.Close()
		if got := readExtObj(t, v2, obj.OID(), len(want)); !bytes.Equal(got, want) {
			t.Fatal("acknowledged append diverged after the crash")
		}
	})
	t.Run("overwrite in place", func(t *testing.T) {
		// No leaf cell changes: the overwrite's own record must name the run.
		mem := blockdev.NewMem(1<<13, blockdev.DefaultBlockSize)
		v, err := Create(mem, Options{Transactional: true})
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
		v2 := mustOpenExact(t, crashCopy(t, v, mem))
		defer v2.Close()
		if got := readExtObj(t, v2, obj.OID(), len(want)); !bytes.Equal(got, want) {
			t.Fatal("acknowledged overwrite diverged after the crash")
		}
	})
	t.Run("new extent on a block freed earlier", func(t *testing.T) {
		mem := blockdev.NewMem(1<<13, blockdev.DefaultBlockSize)
		v, err := Create(mem, Options{Transactional: true})
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
		if err := old.ExtentTree().Extents(func(_ uint64, e extent.Extent) bool { oldRun = e.Alloc; return false }); err != nil {
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
				reused = reused || (e.Alloc >= oldRun && e.Alloc < oldRun+4)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			o.Close()
		}
		if !reused {
			t.Fatal("no new payload landed on the freed run; the test no longer tests the reuse")
		}
		v2 := mustOpenExact(t, crashCopy(t, v, mem))
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
		v, err := Create(fd, Options{Transactional: true, ExtentConfig: extent.Config{MaxExtentBytes: 8192}})
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
		v.stopCheckpointer()
		fd.Disarm()

		v2 := mustOpenExact(t, crashCopy(t, nil, mem))
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
	v, err := Create(mem, Options{Transactional: true})
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
	img := crashCopy(t, v, mem)
	flip(img, 1-cur)
	v2 := mustOpenExact(t, img)
	if why := v2.Recovery().AllocWalk; why != "" {
		t.Fatalf("damage to the slot the generation does not use forced a walk: %s", why)
	}
	v2.Close()

	img = crashCopy(t, nil, mem)
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
// at every write Open makes (replay's write-home, the recount's heals,
// the closing checkpoint's slot and log reset). The interrupted Open
// fails; the next one recovers from whatever it left, exactly.
func TestRecoveryCutDuringWriteHome(t *testing.T) {
	mem := blockdev.NewMem(1<<11, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{Transactional: true, ExtentConfig: extent.Config{MaxExtentBytes: 8192}})
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
	crash := crashCopy(t, v, mem)
	for cut := int64(0); ; cut++ {
		img := crashCopy(t, nil, crash)
		fd := blockdev.NewFault(img)
		fd.SetTornWrites(true)
		fd.FailAfterWrites(cut)
		vi, err := Open(fd, Options{})
		if err == nil {
			vi.stopCheckpointer()
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
				img = crashCopy(t, nil, mem)
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
// caused are system transactions of their own — so the allocator is
// restored from the slot and the rollback runs on top of it. A chain
// whose operation allocated goes through the walk, before and after its
// rollback: logical inverses restore content, not the allocator's shape.
// Either way the result is exact and the loser is gone.
func TestRecoveryLosers(t *testing.T) {
	setup := func(t *testing.T) (*Volume, *blockdev.MemDevice, []OID) {
		mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
		v, err := Create(mem, Options{Transactional: true, CachePages: 64, WALBlocks: 4096})
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
		v.stopCheckpointer()
		v2 := mustOpenExact(t, img)
		defer v2.Close()
		rep := v2.Recovery()
		if rep.Undo.Count == 0 {
			t.Fatalf("no loser chain in the image: %s", rep)
		}
		if rep.AllocWalk != "" {
			t.Fatalf("a loser that only named objects forced a walk (%s)", rep.AllocWalk)
		}
		if rep.Allocator.Count == 0 || rep.ExtentRecount.Count == 0 {
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
			return b.Append(o, fill(5000, byte(i)))
		})
		v.stopCheckpointer()
		v2 := mustOpenExact(t, img)
		defer v2.Close()
		rep := v2.Recovery()
		if rep.Undo.Count == 0 {
			t.Fatalf("no loser chain in the image: %s", rep)
		}
		if rep.AllocWalk != "loser chain allocated" {
			t.Fatalf("AllocWalk = %q for a loser that allocated", rep.AllocWalk)
		}
		for _, oid := range created {
			if _, err := v2.OSD.Stat(oid); err == nil {
				t.Fatalf("loser's object %d survived its rollback", oid)
			}
		}
		if got := readExtObj(t, v2, oids[0], 6000); !bytes.Equal(got, fill(6000, 4)) {
			t.Fatal("committed content diverged")
		}
		// The rebuilt allocator is on the device too: crash again at once.
		v3 := mustOpenExact(t, crashCopy(t, v2, img))
		defer v3.Close()
		if why := v3.Recovery().AllocWalk; why != "" {
			t.Fatalf("second recovery walked again (%s): the first left no usable slot", why)
		}
	})
}

// TestRecoveryCutDuringLoserUndo cuts the power at every write of a
// recovery that rolls losers back — replay's write-home, the undo's
// compensation commits (which resolve the chains: the next open no longer
// sees a loser), the closing checkpoint's flush, slot and log reset. An
// allocating loser is the dangerous one: once its chain is resolved, a
// slot the log's fence still vouches for plus the tail's records would
// count the runs its rollback unlinked as allocated, and no later open
// would ever walk the volume to find them.
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
				return b.Append(o, fill(5000, byte(i)))
			}
		},
	}
	for name, mk := range steps {
		t.Run(name, func(t *testing.T) {
			mem := blockdev.NewMem(1<<11, blockdev.DefaultBlockSize)
			v, err := Create(mem, Options{Transactional: true, CachePages: 64, WALBlocks: 512})
			if err != nil {
				t.Fatal(err)
			}
			oids := populate(t, v, 100)
			if err := v.Sync(); err != nil {
				t.Fatal(err)
			}
			crash := loserImage(t, v, mem, mk(v, oids))
			v.stopCheckpointer()
			// The names-only rollback is some 300 writes, most of them log
			// blocks of one compensation commit: sample those.
			stride := int64(1)
			if name == "names only" {
				stride = 4
			}
			if raceEnabled {
				stride *= 6 // the detector is after the races, not the cut points
			}
			for cut := int64(0); ; cut += stride {
				img := crashCopy(t, nil, crash)
				fd := blockdev.NewFault(img)
				fd.SetTornWrites(true)
				fd.FailAfterWrites(cut)
				vi, err := Open(fd, Options{})
				if err == nil {
					vi.stopCheckpointer()
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
				n := 0
				if err := v2.OSD.ForEach(func(osd.Meta) bool { n++; return true }); err != nil || n != len(oids) {
					t.Fatalf("cut at recovery write %d: %d objects (%v), want %d", cut, n, err, len(oids))
				}
				v2.stopCheckpointer()
			}
		})
	}
}

// TestRecoveryDeleteInTail: DeleteObject frees an object's runs and pages
// under SuspendUndo, with no inverse; the frees are records of the
// deleting operation and replay with it.
func TestRecoveryDeleteInTail(t *testing.T) {
	mem := blockdev.NewMem(1<<13, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{Transactional: true, ExtentConfig: extent.Config{MaxExtentBytes: 4096}})
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
	v2 := mustOpenExact(t, crashCopy(t, v, mem))
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
// the same but the sidecar (sized with the device) — the walk that made
// reopen proportional to the volume is gone — and the btrees recounted
// are the same trees, only taller.
func TestRecoveryCostIsTheTail(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("populates 22 000 objects on a 256 MiB device, single-threaded: nothing for the race detector but its memory")
	}
	run := func(n int) RecoveryReport {
		mem := blockdev.NewMem(1<<16, blockdev.DefaultBlockSize)
		v, err := Create(mem, Options{Transactional: true, WALBlocks: 4096})
		if err != nil {
			t.Fatal(err)
		}
		oids := populate(t, v, n)
		if err := v.Sync(); err != nil {
			t.Fatal(err)
		}
		// The tail: one payload each into five existing objects, then an
		// in-place overwrite of each. No index grows, so the same records
		// are logged whatever the volume holds.
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
		// The crash: v is abandoned, cache and all, and the device reopened
		// in place (a copy of 256 MiB per run is the test's whole footprint).
		v.stopCheckpointer()
		v2 := mustOpenExact(t, mem)
		defer v2.Close()
		return v2.Recovery()
	}
	small, big := run(2000), run(20000)
	counts := func(r RecoveryReport) [9]int64 {
		return [9]int64{r.LogScan.Count, r.LogBytes, r.Replay.Count, r.PagesHome, r.Allocator.Count,
			r.ExtentRecount.Count, r.BtreeRecount.Count, r.Undo.Count, r.Checkpoint.Count}
	}
	if counts(small) != counts(big) {
		t.Fatalf("recovery counts differ with the volume's size:\n  2 000: %s\n 20 000: %s", small, big)
	}
	if small.AllocWalk != "" || big.AllocWalk != "" || small.Allocator.Count != 5 || small.ExtentRecount.Count != 5 {
		t.Fatalf("unexpected recovery: %s", small)
	}
}

// TestRecoveryReportEveryFieldMoves: one crash that exercises every
// phase, and each field of the report must say so.
func TestRecoveryReportEveryFieldMoves(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{Transactional: true, CachePages: 64, WALBlocks: 4096})
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
	v.stopCheckpointer()
	v2 := mustOpenExact(t, img)
	rep := v2.Recovery()
	for _, f := range []struct {
		name string
		p    RecoveryPhase
	}{
		{"SidecarLoad", rep.SidecarLoad}, {"LogScan", rep.LogScan}, {"Replay", rep.Replay},
		{"Allocator", rep.Allocator}, {"ExtentRecount", rep.ExtentRecount}, {"BtreeRecount", rep.BtreeRecount},
		{"Undo", rep.Undo}, {"Checkpoint", rep.Checkpoint},
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
	// slot Close wrote, and nothing is replayed or recounted.
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	v3, err := Open(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Close()
	assertRecoveryExact(t, v3)
	if rep := v3.Recovery(); !rep.Clean || rep.AllocWalk != "" || rep.Replay.Count != 0 || rep.BtreeRecount.Count != 0 {
		t.Errorf("clean open: %s", rep)
	}
}

// TestBaselineModesLeaveNoTrustedSlot: the SerialCommit and ImageLogging
// baselines run with a nil operation capture and stage no allocator
// records, so a snapshot slot left over from an earlier session would be
// stale the moment they allocate. A crash of such a session must find no
// slot to trust; a clean close of one leaves an exact slot behind.
func TestBaselineModesLeaveNoTrustedSlot(t *testing.T) {
	for _, mode := range []Options{{SerialCommit: true}, {ImageLogging: true}} {
		mem := blockdev.NewMem(1<<13, blockdev.DefaultBlockSize)
		v, err := Create(mem, Options{Transactional: true})
		if err != nil {
			t.Fatal(err)
		}
		populate(t, v, 30)
		if err := v.Close(); err != nil { // a valid slot, stamped with the log's fence
			t.Fatal(err)
		}
		vb, err := Open(mem, mode)
		if err != nil {
			t.Fatal(err)
		}
		if why := vb.Recovery().AllocWalk; why != "" {
			t.Fatalf("%+v: clean open walked: %s", mode, why)
		}
		obj, err := vb.OSD.CreateObject("baseline", osd.ModeRegular)
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Append(fill(20000, 8)); err != nil {
			t.Fatal(err)
		}
		v2 := mustOpenExact(t, crashCopy(t, vb, mem))
		if v2.Recovery().AllocWalk == "" {
			t.Fatalf("%+v: a crashed baseline session left a slot recovery trusted", mode)
		}
		if got := readExtObj(t, v2, obj.OID(), 20000); !bytes.Equal(got, fill(20000, 8)) {
			t.Fatalf("%+v: committed content diverged", mode)
		}
		v2.Close()

		if err := vb.Close(); err != nil {
			t.Fatal(err)
		}
		v3 := mustOpenExact(t, mem)
		if rep := v3.Recovery(); !rep.Clean || rep.AllocWalk != "" {
			t.Fatalf("%+v: clean close of a baseline session: %s", mode, rep)
		}
		v3.Close()
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
	v, err := Create(mem, Options{Transactional: true, SnapshotBlocks: 2}) // one-block slots: ~500 chunks
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, v, 3000)
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
	img := crashCopy(t, v, mem)
	for round := 0; round < 2; round++ {
		v2 := mustOpenExact(t, img)
		if v2.Recovery().AllocWalk == "" {
			t.Fatalf("round %d: recovery trusted a slot that cannot describe the allocator: %s", round, v2.Recovery())
		}
		if got := readExtObj(t, v2, oids[1], 9000); !bytes.Equal(got, fill(9000, 6)) {
			t.Fatalf("round %d: acknowledged content diverged", round)
		}
		if err := v2.AddName(oids[1], "UDEF", []byte(fmt.Sprintf("round-%d", round))); err != nil {
			t.Fatalf("round %d: recovered volume refuses mutations: %v", round, err)
		}
		img = crashCopy(t, v2, img)
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
	v4.stopCheckpointer()

	// Back on the original: free the rest, the runs coalesce, the snapshot
	// fits, and a crash recovers from the slot again.
	deleteEach(1, 2)
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	if v.snapCur < 0 {
		t.Fatal("coalesced allocator still written to no slot")
	}
	v5 := mustOpenExact(t, crashCopy(t, v, mem))
	defer v5.Close()
	if why := v5.Recovery().AllocWalk; why != "" {
		t.Fatalf("snapshot fits again, yet recovery walked: %s", why)
	}
}
