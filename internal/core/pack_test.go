package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/extent"
	"repro/internal/osd"
)

// packDocs runs one Batch that creates an object per size, holding
// fill(size, seed+i), and returns their OIDs, in order, with the batch's
// error.
func packDocs(v *Volume, sizes []int, seed byte) ([]OID, error) {
	var oids []OID
	err := v.Batch(func(b *Batch) error {
		for i, n := range sizes {
			o, err := b.CreateObject("pack")
			if err != nil {
				return err
			}
			oids = append(oids, o.OID())
			err = b.Append(o, fill(n, seed+byte(i)))
			o.Close()
			if err != nil {
				return err
			}
		}
		return nil
	})
	return oids, err
}

// extentsOf returns the extents of object oid.
func extentsOf(t testing.TB, v *Volume, oid OID) []extent.Extent {
	t.Helper()
	obj, err := v.OSD.OpenObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	var out []extent.Extent
	if err := obj.ExtentTree().Extents(func(_ uint64, e extent.Extent) bool {
		out = append(out, e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// dataBlocks returns the blocks that hold the bytes of oids.
func dataBlocks(t testing.TB, v *Volume, oids []OID) map[uint64]bool {
	t.Helper()
	blocks := map[uint64]bool{}
	for _, oid := range oids {
		for _, e := range extentsOf(t, v, oid) {
			for s := e.Sector; s < e.Sector+uint64(e.Sectors) && !e.IsHole(); s += buddy.SectorsPerBlock {
				blocks[s>>buddy.SectorShift] = true
			}
		}
	}
	return blocks
}

// repeat is n sizes of size bytes.
func repeat(size, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// ingestSizes is 25 documents as the benchmark's ingest draws them: 2 KiB
// each, and three of them 8 bytes longer, which no longer fit half a
// block.
func ingestSizes() []int {
	sizes := make([]int, 25)
	for i := range sizes {
		sizes[i] = 2048
		if i%8 == 3 {
			sizes[i] = 2056
		}
	}
	return sizes
}

// TestBatchPacksSmallObjects counts the data block writes of a Batch on a
// device that logs every write. Two 2 KiB documents share a block, so 25
// documents, three of them too long to share, write 14 data blocks, where
// one block per document wrote 25; twenty 640-byte documents take a
// 1 KiB slot each, four to a block, and write 5 blocks, not 20. Each
// block is written once, and every document reads back.
func TestBatchPacksSmallObjects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int
		want  int
	}{
		{"25 ingest documents", ingestSizes(), 14},
		{"20 documents of 640 B", repeat(640, 20), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := &writeLog{Device: blockdev.NewMem(1<<13, blockdev.DefaultBlockSize)}
			v, err := Create(dev, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			dev.mu.Lock()
			dev.blocks = nil
			dev.mu.Unlock()
			oids, err := packDocs(v, tc.sizes, 1)
			if err != nil {
				t.Fatal(err)
			}
			data := dataBlocks(t, v, oids)
			writes := map[uint64]int{}
			dev.mu.Lock()
			for _, b := range dev.blocks {
				if data[b] {
					writes[b]++
				}
			}
			dev.mu.Unlock()
			n := 0
			for b, w := range writes {
				n += w
				if w != 1 {
					t.Errorf("data block %d written %d times", b, w)
				}
			}
			if n != tc.want || len(data) != tc.want {
				t.Errorf("%d documents wrote %d data blocks (%d distinct), want %d", len(tc.sizes), n, len(data), tc.want)
			}
			for i, oid := range oids {
				if got := readExtObj(t, v, oid, tc.sizes[i]); !bytes.Equal(got, fill(tc.sizes[i], 1+byte(i))) {
					t.Fatalf("document %d reads back wrong", i)
				}
			}
			rep, err := v.Check()
			if err != nil || !rep.Ok() {
				t.Fatalf("check: %v %v", err, rep.Problems)
			}
		})
	}
}

// TestPendingPackReadsFromAnotherGoroutine: inside a batch, before its
// pack is written, a reader in another goroutine reads a packed object
// and gets the batch's bytes, from the pack's buffer: the device still
// holds zeros there. Run under -race, it also holds the buffer's copy in
// and copy out to one lock.
func TestPendingPackReadsFromAnotherGoroutine(t *testing.T) {
	v, _ := newVolume(t, Options{})
	defer v.Close()
	want := fill(640, 7)
	err := v.Batch(func(b *Batch) error {
		o, err := b.CreateObject("pending")
		if err != nil {
			return err
		}
		defer o.Close()
		if err := b.Append(o, want); err != nil {
			return err
		}
		e := extentsOf(t, v, o.OID())[0]
		if !e.IsSlot() {
			t.Fatalf("a 640-byte document in a batch took %d sectors, want a slot", e.Sectors)
		}
		raw := make([]byte, v.raw.BlockSize())
		if err := v.raw.ReadBlock(e.Sector>>buddy.SectorShift, raw); err != nil {
			return err
		}
		if !bytes.Equal(raw, make([]byte, len(raw))) {
			t.Fatal("the pack reached the device before the batch closed it")
		}
		var wg sync.WaitGroup
		var got []byte
		var rerr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := v.OSD.OpenObject(o.OID())
			if err != nil {
				rerr = err
				return
			}
			defer r.Close()
			got = make([]byte, len(want))
			if _, err := r.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
				rerr = err
			}
		}()
		// A second document lands in the same pack while the reader runs.
		o2, err := b.CreateObject("pending")
		if err != nil {
			return err
		}
		defer o2.Close()
		if err := b.Append(o2, fill(640, 8)); err != nil {
			return err
		}
		wg.Wait()
		if rerr != nil {
			return rerr
		}
		if !bytes.Equal(got, want) {
			t.Fatal("a reader in another goroutine did not get the pending pack's bytes")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// slotBlocks returns the blocks that hold a live slot on v.
func slotBlocks(t testing.TB, v *Volume) map[uint64]bool {
	t.Helper()
	var oids []OID
	if err := v.OSD.ForEach(func(m osd.Meta) bool {
		oids = append(oids, m.OID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	blocks := map[uint64]bool{}
	for _, oid := range oids {
		for _, e := range extentsOf(t, v, oid) {
			if e.IsSlot() {
				blocks[e.Sector>>buddy.SectorShift] = true
			}
		}
	}
	return blocks
}

// TestPackedSlotsWrittenOnce runs random batches, appends, overwrites,
// inserts, truncates and deletes against an oracle, and watches every
// device write: none may reach a block while that block holds a slot of a
// committed object. After every step each object reads back as the
// oracle holds it, and the volume checks clean.
func TestPackedSlotsWrittenOnce(t *testing.T) {
	dev := &writeLog{Device: blockdev.NewMem(1<<13, blockdev.DefaultBlockSize)}
	v, err := Create(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	rng := rand.New(rand.NewPCG(48, 8))
	oracle := map[OID][]byte{}
	small := func() []byte { return fill(1+rng.IntN(2100), byte(rng.IntN(256))) }
	open := func(oid OID) *osd.Object {
		o, err := v.OSD.OpenObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for step := 0; step < 300; step++ {
		live := slotBlocks(t, v)
		dev.mu.Lock()
		dev.blocks = nil
		dev.mu.Unlock()
		oids := make([]OID, 0, len(oracle))
		for oid := range oracle {
			oids = append(oids, oid)
		}
		slices.Sort(oids)
		var oid OID
		if len(oids) > 0 {
			oid = oids[rng.IntN(len(oids))]
		}
		kind := rng.IntN(7)
		if len(oids) == 0 {
			kind = 0
		}
		switch kind {
		case 0: // a batch of new documents, some written twice
			err := v.Batch(func(b *Batch) error {
				for i := 0; i < 1+rng.IntN(9); i++ {
					o, err := b.CreateObject("p")
					if err != nil {
						return err
					}
					p := small()
					if err := b.Append(o, p); err != nil {
						return err
					}
					if rng.IntN(4) == 0 {
						q := small()
						if err := b.Append(o, q); err != nil {
							return err
						}
						p = append(p, q...)
					}
					oracle[o.OID()] = p
					o.Close()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		case 1: // append
			o := open(oid)
			p := small()
			if err := o.Append(p); err != nil {
				t.Fatal(err)
			}
			o.Close()
			oracle[oid] = append(oracle[oid], p...)
		case 2: // overwrite inside the object
			if n := len(oracle[oid]); n > 0 {
				off := rng.IntN(n)
				p := fill(1+rng.IntN(n-off), byte(step))
				o := open(oid)
				if err := o.WriteAt(p, uint64(off)); err != nil {
					t.Fatal(err)
				}
				o.Close()
				copy(oracle[oid][off:], p)
			}
		case 3: // insert
			off := rng.IntN(len(oracle[oid]) + 1)
			p := fill(1+rng.IntN(300), byte(step))
			o := open(oid)
			if err := o.InsertAt(uint64(off), p); err != nil {
				t.Fatal(err)
			}
			o.Close()
			oracle[oid] = slices.Insert(slices.Clone(oracle[oid]), off, p...)
		case 4: // truncate, shrinking or growing
			n := rng.IntN(len(oracle[oid]) + 600)
			o := open(oid)
			if err := o.Truncate(uint64(n)); err != nil {
				t.Fatal(err)
			}
			o.Close()
			cur := oracle[oid]
			if n <= len(cur) {
				oracle[oid] = cur[:n]
			} else {
				oracle[oid] = append(cur, make([]byte, n-len(cur))...)
			}
		case 5: // delete
			if err := v.DeleteObject(oid); err != nil {
				t.Fatal(err)
			}
			delete(oracle, oid)
		case 6: // checkpoint: limbo drains, freed slots coalesce
			if err := v.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		dev.mu.Lock()
		for _, b := range dev.blocks {
			if live[b] {
				t.Fatalf("step %d (kind %d): block %d written while it holds a committed slot", step, kind, b)
			}
		}
		dev.mu.Unlock()
	}
	for oid, want := range oracle {
		if got := readExtObj(t, v, oid, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("object %d diverged from the oracle", oid)
		}
	}
	rep, err := v.Check()
	if err != nil || !rep.Ok() {
		t.Fatalf("check: %v %v", err, rep.Problems)
	}
	if err := v.VerifyAllocator(); err != nil {
		t.Fatal(err)
	}
	if len(slotBlocks(t, v)) == 0 {
		t.Fatal("no object is left in a slot: the run did not test packing")
	}
}

// packCut replays run on the image img with the power cut after limit
// device writes and syncs (never, when limit < 0), and returns how many
// passed.
func packCut(t *testing.T, mem *blockdev.MemDevice, img []byte, limit int64, run func(v *Volume)) int64 {
	t.Helper()
	if err := mem.RestoreFrom(img); err != nil {
		t.Fatal(err)
	}
	pc := &powerCut{Device: mem, limit: -1}
	v, err := Open(pc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pc.limit, pc.ops = limit, 0
	run(v)
	return pc.ops
}

// checkDocs holds each of oids on the recovered v to its content in want
// (nil: deleted), or, when the edit that set it was not acknowledged, to
// either that content or the one in was.
func checkDocs(t *testing.T, v *Volume, limit int64, oids []OID, want, was [][]byte, acked bool) {
	t.Helper()
	for i, oid := range oids {
		m, err := v.OSD.Stat(oid)
		var got []byte
		switch {
		case errors.Is(err, osd.ErrNotFound):
		case err != nil:
			t.Fatal(err)
		default:
			got = readExtObj(t, v, oid, int(m.Size))
		}
		if bytes.Equal(got, want[i]) && (got == nil) == (want[i] == nil) {
			continue
		}
		if !acked && bytes.Equal(got, was[i]) && (got == nil) == (was[i] == nil) {
			continue
		}
		t.Fatalf("cut at %d: document %d holds %d bytes no edit left (acked %v)", limit, i, len(got), acked)
	}
}

// TestCrashPackingBatch cuts the power at every device write and sync of
// a batch that packs three 1 000-byte documents into one block and frees
// the block's unused slot, and of the checkpoint after it. Every cut
// recovers exactly; an acknowledged batch keeps its documents, and an
// unacknowledged one leaves all or none of them.
func TestCrashPackingBatch(t *testing.T) {
	mem := blockdev.NewMem(1<<12, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	img := mem.Snapshot()
	sizes := []int{1000, 1000, 1000}
	var oids []OID
	var acked bool
	run := func(v *Volume) {
		var err error
		oids, err = packDocs(v, sizes, 3)
		acked = err == nil
		if acked {
			_ = v.Sync()
		}
	}
	ops := packCut(t, mem, img, -1, run)
	if !acked {
		t.Fatal("the batch failed on a healthy device")
	}
	want := make([][]byte, len(sizes))
	for i, n := range sizes {
		want[i] = fill(n, 3+byte(i))
	}
	for limit := int64(0); limit <= ops; limit++ {
		packCut(t, mem, img, limit, run)
		v := mustOpenExact(t, mem)
		checkDocs(t, v, limit, oids, want, make([][]byte, len(sizes)), acked)
		if !acked {
			present := 0
			for _, oid := range oids {
				if _, err := v.OSD.Stat(oid); err == nil {
					present++
				}
			}
			if present != 0 && present != len(oids) {
				t.Fatalf("cut at %d: %d of %d documents of an unacknowledged batch survive", limit, present, len(oids))
			}
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d cuts", ops+1)
}

// TestCrashAppendMovesPackedObjectOut cuts the power at every device
// write and sync of a single-commit append to a packed document, which
// moves the document out of its slot, and of the checkpoint after it.
// Every cut recovers exactly, to the old content or, once acknowledged,
// the new.
func TestCrashAppendMovesPackedObjectOut(t *testing.T) {
	mem := blockdev.NewMem(1<<12, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{2000, 2000}
	oids, err := packDocs(v, sizes, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	img := mem.Snapshot()
	was := [][]byte{fill(2000, 5), fill(2000, 6)}
	want := [][]byte{append(fill(2000, 5), fill(300, 9)...), fill(2000, 6)}
	var acked bool
	run := func(v *Volume) {
		o, err := v.OSD.OpenObject(oids[0])
		if err != nil {
			return
		}
		acked = o.Append(fill(300, 9)) == nil
		o.Close()
		if acked {
			_ = v.Sync()
		}
	}
	ops := packCut(t, mem, img, -1, run)
	if !acked {
		t.Fatal("the append failed on a healthy device")
	}
	v = mustOpenExact(t, mem)
	if e := extentsOf(t, v, oids[0]); len(e) != 1 || e[0].IsSlot() {
		t.Fatalf("the appended document has extents %+v, want one run of whole blocks", e)
	}
	if e := extentsOf(t, v, oids[1]); !e[0].IsSlot() {
		t.Fatal("the other document left its slot")
	}
	v.Close()
	for limit := int64(0); limit <= ops; limit++ {
		packCut(t, mem, img, limit, run)
		v := mustOpenExact(t, mem)
		checkDocs(t, v, limit, oids, want, was, acked)
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d cuts", ops+1)
}

// TestCrashDeleteFreesPacksLastSlot cuts the power at every device write
// and sync of two deletes that free both slots of a pack, and of the
// checkpoint that then releases them and coalesces the block. Every cut
// recovers exactly, and once both deletes are acknowledged the block is a
// whole free block again.
func TestCrashDeleteFreesPacksLastSlot(t *testing.T) {
	mem := blockdev.NewMem(1<<12, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{2048, 2048}
	oids, err := packDocs(v, sizes, 11)
	if err != nil {
		t.Fatal(err)
	}
	block := extentsOf(t, v, oids[0])[0].Sector >> buddy.SectorShift
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	img := mem.Snapshot()
	was := [][]byte{fill(2048, 11), fill(2048, 12)}
	var acked int
	synced := false
	run := func(v *Volume) {
		acked, synced = 0, false
		for _, oid := range oids {
			if v.DeleteObject(oid) != nil {
				return
			}
			acked++
		}
		synced = v.Sync() == nil
	}
	ops := packCut(t, mem, img, -1, run)
	if acked != 2 || !synced {
		t.Fatal("the deletes failed on a healthy device")
	}
	for limit := int64(0); limit <= ops; limit++ {
		packCut(t, mem, img, limit, run)
		v := mustOpenExact(t, mem)
		want := slices.Clone(was)
		for i := 0; i < acked; i++ {
			want[i] = nil
		}
		checkDocs(t, v, limit, oids[:acked], want[:acked], was[:acked], true)
		checkDocs(t, v, limit, oids[acked:], was[acked:], make([][]byte, 2-acked), false)
		// Recovery ends in a checkpoint, which releases limbo: once both
		// deletes are durable, the block is whole and free.
		if acked == 2 {
			if err := v.Allocator().AllocSectorsAt(block*buddy.SectorsPerBlock, buddy.SectorsPerBlock); err != nil {
				t.Fatalf("cut at %d: the pack's block did not coalesce: %v", limit, err)
			}
		}
		v.Close()
	}
	t.Logf("%d cuts", ops+1)
}

// TestRecoverHoldsPackToItsSum: a pack's one write reaches the device
// with a bit flipped below the checksumming layer that summed it, the
// batch commits, and the power goes before a checkpoint. Recovery holds
// the block to the sum the batch logged for it, so reading a document of
// the pack is an error, not bytes with the flipped bit.
func TestRecoverHoldsPackToItsSum(t *testing.T) {
	mem := blockdev.NewMem(1<<12, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	img := mem.Snapshot()
	sizes := []int{2000, 2000}
	batch := func(dev blockdev.Device) []OID {
		if err := mem.RestoreFrom(img); err != nil {
			t.Fatal(err)
		}
		v, err := Open(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		oids, err := packDocs(v, sizes, 21)
		if err != nil {
			t.Fatal(err)
		}
		return oids
	}
	healthy := batch(mem)
	hv := mustOpenExact(t, crashCopy(t, mem))
	block := extentsOf(t, hv, healthy[0])[0].Sector >> buddy.SectorShift
	hv.Close()

	fd := blockdev.NewFault(mem)
	flip := fd.AddRule(blockdev.FaultRule{Op: blockdev.OpWrite, Kind: blockdev.FaultBitFlip, Lo: block, Hi: block + 1, Count: 1})
	oids := batch(fd)
	if flip.Fired() != 1 {
		t.Fatalf("the flip fired %d times", flip.Fired())
	}
	v2, err := Open(crashCopy(t, mem), Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer v2.Close()
	if v2.Recovery().Clean {
		t.Fatal("the image needed no recovery")
	}
	o, err := v2.OSD.OpenObject(oids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.ReadAt(make([]byte, sizes[0]), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reading a document of pack %d written with a flipped bit: %v, want ErrCorrupt", block, err)
	}
}

// TestPackedSetReopensFromSnapshot: 4 000 packed documents, half of them
// then moved out of their slots by an append, leave every other slot of
// 2 000 packs stranded. The allocator snapshot still fits its slot, so a
// crash reopen restores it and replays the tail instead of walking the
// volume.
func TestPackedSetReopensFromSnapshot(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var oids []OID
	for len(oids) < 4000 {
		got, err := packDocs(v, repeat(2000, 100), byte(len(oids)))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, got...)
	}
	for i := 0; i < len(oids); i += 2 {
		o, err := v.OSD.OpenObject(oids[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Append([]byte("moved")); err != nil {
			t.Fatal(err)
		}
		o.Close()
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	st := v.Allocator().Stats()
	if st.Stranded != 2000*buddy.SectorsPerBlock/2 {
		t.Fatalf("%d sectors stranded, want half of 2 000 packs", st.Stranded)
	}
	if _, err := packDocs(v, []int{700, 700}, 1); err != nil { // a tail to replay
		t.Fatal(err)
	}
	v2 := mustOpenExact(t, crashCopy(t, mem))
	defer v2.Close()
	if r := v2.Recovery(); r.AllocWalk != "" || r.Clean {
		t.Fatalf("reopen rebuilt the allocator by walk (%s)", r)
	}
}

// TestCheckReportsPlantedSlots: Check names a slot two objects claim, and
// a slot whose sectors the allocator holds free.
func TestCheckReportsPlantedSlots(t *testing.T) {
	plant := func(t *testing.T, f func(v *Volume, oids []OID)) []string {
		v, _ := newVolume(t, Options{})
		defer v.Close()
		oids, err := packDocs(v, []int{1000, 1000, 1000, 1000}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := v.Check(); err != nil || !rep.Ok() {
			t.Fatalf("check before planting: %v %v", err, rep.Problems)
		}
		f(v, oids)
		rep, err := v.Check()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Problems
	}
	has := func(problems []string, what string) bool {
		return slices.ContainsFunc(problems, func(p string) bool { return strings.Contains(p, what) })
	}
	t.Run("sector owned twice", func(t *testing.T) {
		problems := plant(t, func(v *Volume, oids []OID) {
			key := func(oid OID) []byte { return binary.BigEndian.AppendUint64(nil, uint64(oid)) }
			row, err := v.OSD.MetaTree().Get(key(oids[0]))
			if err != nil {
				t.Fatal(err)
			}
			if err := v.OSD.MetaTree().PutOp(nil, key(oids[1]), row); err != nil {
				t.Fatal(err)
			}
		})
		if !has(problems, "doubly owned") {
			t.Fatalf("no doubly owned sectors reported: %v", problems)
		}
	})
	t.Run("slot on free sectors", func(t *testing.T) {
		problems := plant(t, func(v *Volume, oids []OID) {
			e := extentsOf(t, v, oids[2])[0]
			if err := v.Allocator().FreeSectors(e.Sector, uint64(e.Sectors)); err != nil {
				t.Fatal(err)
			}
			if err := v.Allocator().ReleaseLimbo(); err != nil {
				t.Fatal(err)
			}
		})
		if !has(problems, "owned but marked free") {
			t.Fatalf("no owned-but-free sectors reported: %v", problems)
		}
	})
}
