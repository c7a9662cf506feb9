package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/extent"
	"repro/internal/osd"
)

// failNthDevice injects exactly one transient write failure (the nth
// write after arming) and then recovers — unlike FaultDevice, which
// keeps failing until disarmed. It models a single I/O error landing in
// the middle of an extent mutation chain while the commit machinery
// afterwards still works, which is precisely the window the bracket's
// commit-even-on-error rule exists for.
type failNthDevice struct {
	blockdev.Device
	countdown atomic.Int64 // 0 = disarmed
}

func (d *failNthDevice) WriteBlock(no uint64, p []byte) error {
	if d.countdown.Load() > 0 && d.countdown.Add(-1) == 0 {
		return errors.New("injected transient write error")
	}
	return d.Device.WriteBlock(no, p)
}

// readExtObj reads an object's full content through a fresh handle.
func readExtObj(t *testing.T, v *Volume, oid OID, size int) []byte {
	t.Helper()
	obj, err := v.OSD.OpenObject(oid)
	if err != nil {
		t.Fatalf("open %d: %v", oid, err)
	}
	defer obj.Close()
	buf := make([]byte, size)
	if size == 0 {
		return buf
	}
	n, err := obj.ReadAt(buf, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("read %d: %v", oid, err)
	}
	if n != size {
		t.Fatalf("read %d: %d of %d bytes", oid, n, size)
	}
	return buf
}

// TestExtentMidChainFaultStillRecoverable sweeps a single transient
// write failure across every position of an extent mutation chain (a
// hole-materializing WriteAt: boundary splits, cell removal, fresh
// allocations, count fixups, meta updates, base-image and commit
// appends). Whatever step the fault lands on, the staged records of the
// partially applied mutation must still reach the log (the btree
// hazard, extended to extent chains: the cache mutations are applied,
// so dropping their records would let dependent commits land unlogged
// and replay reconstruct an object table that contradicts the leaves).
// After a crash at that point, recovery must produce a clean
// fsck and all previously committed content.
func TestExtentMidChainFaultStillRecoverable(t *testing.T) {
	pat := func(n int, seed byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seed + byte(i%37)
		}
		return p
	}
	for n := int64(1); n <= 14; n++ {
		n := n
		t.Run(fmt.Sprintf("failWrite%d", n), func(t *testing.T) {
			mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
			fd := &failNthDevice{Device: mem}
			v, err := Create(fd, Options{
				WALBlocks:    512,
				ExtentConfig: extent.Config{MaxExtentBytes: 8192},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Committed baseline: real data, then a large hole behind it.
			obj, err := v.OSD.CreateObject("mid", osd.ModeRegular)
			if err != nil {
				t.Fatal(err)
			}
			base := pat(20000, 3)
			if err := obj.WriteAt(base, 0); err != nil {
				t.Fatal(err)
			}
			if err := obj.Truncate(120000); err != nil {
				t.Fatal(err)
			}

			// The faulted operation: materialize the middle of the hole.
			fd.countdown.Store(n)
			werr := obj.WriteAt(pat(9000, 9), 50000)
			fd.countdown.Store(0)
			wrote := werr == nil

			// Crash: reopen from the raw surviving image.
			v2, err := Open(mem, Options{})
			if err != nil {
				t.Fatalf("recovery open (fault at write %d, op err %v): %v", n, werr, err)
			}
			assertRecoveryExact(t, v2)
			defer v2.Close()
			rep, err := v2.Check()
			if err != nil {
				t.Fatalf("fsck: %v", err)
			}
			if !rep.Ok() {
				t.Fatalf("fsck problems after fault at write %d (op err %v): %v", n, werr, rep.Problems)
			}
			// The committed baseline must survive regardless; if the
			// faulted op was acknowledged, its bytes must too.
			m, err := v2.OSD.Stat(obj.OID())
			if err != nil {
				t.Fatal(err)
			}
			got := readExtObj(t, v2, obj.OID(), int(m.Size))
			if len(got) < len(base) || !bytes.Equal(got[:len(base)], base) {
				t.Fatalf("committed baseline lost (fault at write %d)", n)
			}
			if wrote {
				if m.Size != 120000 || !bytes.Equal(got[50000:59000], pat(9000, 9)) {
					t.Fatalf("acknowledged hole write lost (fault at write %d)", n)
				}
			}
		})
	}
}

// TestTruncateFreesStayInLimboUntilCheckpoint pins the free-then-realloc
// crash hole on the data path: extent runs freed by TruncateRange (or
// DeleteRange) must park in the allocator's limbo until a checkpoint
// proves the free durable. If they were reusable immediately, a heavy
// writer could recycle them, and a crash would replay the old object's
// still-committed extent map over the new owner's blocks — double
// ownership fsck would flag (and readers would see torn content).
func TestTruncateFreesStayInLimboUntilCheckpoint(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{
		WALBlocks:    1024,
		ExtentConfig: extent.Config{MaxExtentBytes: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	pat := func(n int, seed byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seed + byte(i%41)
		}
		return p
	}
	obj, err := v.OSD.CreateObject("limbo", osd.ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	content := pat(60000, 5)
	if err := obj.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	// Remove the middle: several full extents' allocations are freed.
	if err := obj.TruncateRange(16000, 24000); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, content[:16000]...), content[40000:]...)
	if got := v.ba.LimboBlocks(); got == 0 {
		t.Fatal("truncated extent runs bypassed limbo: freed blocks immediately reusable")
	}

	// Hammer fresh allocations: none may land on the limbo runs.
	for i := 0; i < 8; i++ {
		o2, err := v.OSD.CreateObject("writer", osd.ModeRegular)
		if err != nil {
			t.Fatal(err)
		}
		if err := o2.WriteAt(pat(20000, byte(10+i)), 0); err != nil {
			t.Fatal(err)
		}
		o2.Close()
	}

	// Crash before any checkpoint: recovery replays the truncate and the
	// new writers; nothing may own a block twice and the truncated
	// object's surviving bytes must be intact.
	v2, err := Open(mem, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	assertRecoveryExact(t, v2)
	rep, err := v2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("fsck after truncate+realloc crash: %v", rep.Problems)
	}
	if got := readExtObj(t, v2, obj.OID(), len(want)); !bytes.Equal(got, want) {
		t.Fatal("truncated object content diverged after crash")
	}
	// A checkpoint drains limbo and makes the runs reusable.
	if err := v2.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := v2.ba.LimboBlocks(); got != 0 {
		t.Fatalf("limbo not drained by checkpoint: %d blocks", got)
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckDetectsLeafSkewAfterCrash: an extent tree keeps no counter
// that an open could heal, so a leaf whose bytes disagree with the object
// table (here induced by editing a leaf cell's Len on the raw image) is
// not rewritten by recovery. The unclean open succeeds, reports what the
// leaves hold, and fsck names the disagreement.
func TestCheckDetectsLeafSkewAfterCrash(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{
		WALBlocks:    256,
		ExtentConfig: extent.Config{MaxExtentBytes: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := v.OSD.CreateObject("skew", osd.ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.WriteAt(make([]byte, 20000), 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(); err != nil { // checkpoint: pages home, log reset
		t.Fatal(err)
	}
	// The log tail: one in-place overwrite, which rewrites no leaf cell.
	if err := obj.WriteAt([]byte("tail"), 0); err != nil {
		t.Fatal(err)
	}
	// Find the extent leaf on the raw image and stretch the tail cell's
	// Len within its allocation slack (20000 % 4096 = 3616 < 4096).
	buf := make([]byte, blockdev.DefaultBlockSize)
	const grow = 480
	patched := false
	for b := uint64(1); b < mem.NumBlocks() && !patched; b++ {
		if err := mem.ReadBlock(b, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 6 { // extent leaf page type
			continue
		}
		n := int(binary.LittleEndian.Uint16(buf[2:]))
		for c := 0; c < n; c++ {
			off := 24 + c*16
			if binary.LittleEndian.Uint32(buf[off+12:]) == 3616 {
				binary.LittleEndian.PutUint32(buf[off+12:], 3616+grow)
				if err := mem.WriteBlock(b, buf); err != nil {
					t.Fatal(err)
				}
				// The skew models a leaf written through the checksumming
				// device, not media rot, so refresh the sidecar entry too.
				refreshSidecarSum(t, mem, b, buf)
				patched = true
				break
			}
		}
	}
	if !patched {
		t.Fatal("tail extent cell not found on raw image")
	}
	// "Crash" (the superblock is still marked dirty).
	v2, err := Open(mem, Options{})
	if err != nil {
		t.Fatalf("unclean open over a skewed leaf: %v", err)
	}
	defer v2.Close()
	o2, err := v2.OSD.OpenObject(obj.OID())
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if got := o2.Size(); got != 20000+grow {
		t.Fatalf("tree size %d, want the leaves' %d", got, 20000+grow)
	}
	m, err := v2.OSD.Stat(obj.OID())
	if err != nil {
		t.Fatal(err)
	}
	if m.Size != 20000 {
		t.Fatalf("recovery rewrote the object table size to %d", m.Size)
	}
	rep, err := v2.Check()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("object %d: table size 20000, extent tree holds %d", obj.OID(), 20000+grow)
	found := false
	for _, p := range rep.Problems {
		found = found || p == want
	}
	if !found {
		t.Fatalf("fsck did not report %q: %v", want, rep.Problems)
	}
}

// TestCrashOverwriteOverOpenGrowth: an in-place overwrite commits while
// a batch that grew the same object is still open. The overwrite writes
// the object-table row with the size the tree has then — the batch's
// uncommitted growth included — so its commit must wait until the log
// holds the batch's records (the tree's flush dependency): the crash then
// finds the batch as a loser and its rollback takes the row back with the
// bytes. Without the dependency the batch's records are simply missing
// and the row keeps the growth the tree lost. In handle_closed the batch
// closes its handle before the overwrite opens the object, so no handle
// keeps the tree between the two: the dependency must outlive it.
func TestCrashOverwriteOverOpenGrowth(t *testing.T) {
	want := fill(20000, 1)
	copy(want[100:], "over")
	overwrite := func(o *osd.Object) error { return o.WriteAt([]byte("over"), 100) }
	t.Run("handle_open", func(t *testing.T) { crashOverOpenGrowth(t, false, overwrite, want) })
	t.Run("handle_closed", func(t *testing.T) { crashOverOpenGrowth(t, true, overwrite, want) })
}

// TestCrashAppendOverOpenGrowth is the append sibling: the neighbour's
// committed append lands after the batch's uncommitted cells, in leaf
// cells addressed by index and with a row size counting both. Recovery
// must roll the batch back around it, as a runtime abort does
// (TestConcurrentBracketsSameObjectAbort).
func TestCrashAppendOverOpenGrowth(t *testing.T) {
	want := append(fill(20000, 1), "tail"...)
	app := func(o *osd.Object) error { return o.Append([]byte("tail")) }
	t.Run("handle_open", func(t *testing.T) { crashOverOpenGrowth(t, false, app, want) })
	t.Run("handle_closed", func(t *testing.T) { crashOverOpenGrowth(t, true, app, want) })
}

// crashOverOpenGrowth runs the shared script: a Batch appends 3 000
// bytes to a 20 000-byte object and stays open while another goroutine
// runs edit on the same object through its own handle and commits; the
// crash image is taken inside the batch and must reopen exactly to want.
// closeFirst closes the batch's handle before edit opens the object.
func crashOverOpenGrowth(t *testing.T, closeFirst bool, edit func(*osd.Object) error, want []byte) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{WALBlocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := v.OSD.CreateObject("grow", osd.ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	oid := obj.OID()
	if err := obj.WriteAt(fill(20000, 1), 0); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	// The open batch holds the checkpoint fence shared; a checkpoint
	// waiting on it would block the neighbour's bracket behind it.
	v.stopCheckpointer()
	var img *blockdev.MemDevice
	err = v.Batch(func(b *Batch) error {
		o, err := v.OSD.OpenObject(oid)
		if err != nil {
			return err
		}
		defer o.Close()
		if err := b.Append(o, fill(3000, 2)); err != nil {
			return err
		}
		if closeFirst {
			o.Close()
		}
		done := make(chan error)
		go func() {
			o2, err := v.OSD.OpenObject(oid)
			if err == nil {
				err = edit(o2)
				o2.Close()
			}
			done <- err
		}()
		if err := <-done; err != nil {
			return err
		}
		img = crashCopy(t, nil, mem)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v2 := mustOpenExact(t, img)
	defer v2.Close()
	m, err := v2.OSD.Stat(oid)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size != uint64(len(want)) {
		t.Fatalf("Stat reports %d bytes, want the committed %d (%s)", m.Size, len(want), v2.Recovery())
	}
	if got := readExtObj(t, v2, oid, len(want)); !bytes.Equal(got, want) {
		t.Fatal("committed content diverged")
	}
}

// TestCrashLoopExtentChurn is the extent-tree sibling of
// TestCrashLoopConcurrentWriters: concurrent writers mix appends,
// overwrites, and truncates on their own objects while crashes land mid
// WAL append, mid system transaction, and mid checkpoint. Every
// acknowledged operation's resulting content must survive every crash,
// and fsck (including the extent-tree structural checks) must stay
// clean.
func TestCrashLoopExtentChurn(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	fd := blockdev.NewFault(mem)
	v, err := Create(fd, Options{
		WALBlocks:    256,
		ExtentConfig: extent.Config{MaxExtentBytes: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(0xE16, 0x5))
	pat := func(n int, seed byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seed + byte(i%29)
		}
		return p
	}

	type window struct {
		off  uint64
		data []byte
	}
	var mu sync.Mutex
	acked := map[OID][]byte{} // last acknowledged content per object
	// In-flight in-place overwrites: an overwrite writes committed
	// extents' data blocks directly (metadata is logged, content is
	// not), so a crash during an UNacknowledged overwrite may surface
	// either the old or the new bytes inside its window. Everything
	// outside the window — and all structure — must match the acked
	// state exactly.
	pending := map[OID]window{}

	const writers = 4
	for round := 0; round < 6; round++ {
		if round > 0 && rng.IntN(2) == 0 {
			fd.SetTornWrites(true)
		}
		fd.FailAfterWrites(int64(30 + rng.IntN(120)))
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			seed := byte(round*writers + w)
			wrng := rand.New(rand.NewPCG(0xE16, uint64(seed))) // rng is the main goroutine's
			go func() {
				defer wg.Done()
				obj, err := v.OSD.CreateObject("churn", osd.ModeRegular)
				if err != nil {
					return
				}
				defer obj.Close()
				oid := obj.OID()
				var oracle []byte
				commit := func() {
					mu.Lock()
					acked[oid] = append([]byte(nil), oracle...)
					delete(pending, oid)
					mu.Unlock()
				}
				commit() // the create itself was acknowledged
				for i := 0; i < 12 && !fd.Tripped(); i++ {
					switch i % 3 {
					case 0: // append
						p := pat(1500+int(seed)*7, seed+byte(i))
						if err := obj.Append(p); err != nil {
							return
						}
						oracle = append(oracle, p...)
					case 1: // overwrite in place
						if len(oracle) > 100 {
							off := uint64(len(oracle) / 3)
							p := pat(80, seed+byte(i)+100)
							mu.Lock()
							pending[oid] = window{off, p}
							mu.Unlock()
							if err := obj.WriteAt(p, off); err != nil {
								return
							}
							copy(oracle[off:], p)
						}
					case 2: // truncate away the tail
						if len(oracle) > 1000 {
							cut := uint64(len(oracle) - wrng.IntN(900) - 1)
							if err := obj.Truncate(cut); err != nil {
								return
							}
							oracle = oracle[:cut]
						}
					}
					commit()
				}
			}()
		}
		wg.Wait()
		if !fd.Tripped() {
			fd.FailAfterWrites(0)
			_, _ = v.OSD.CreateObject("x", osd.ModeRegular)
		}
		// The crashed volume's checkpointer would otherwise resurrect once
		// the fault disarms and scribble over the recovered image; a real
		// crash kills the process, so kill its background writer here.
		v.stopCheckpointer()
		fd.Disarm()

		v2, err := Open(mem, Options{})
		if err != nil {
			t.Fatalf("round %d recovery open: %v", round, err)
		}
		assertRecoveryExact(t, v2)
		rep, err := v2.Check()
		if err != nil {
			t.Fatalf("round %d fsck: %v", round, err)
		}
		if !rep.Ok() {
			t.Fatalf("round %d fsck problems: %v", round, rep.Problems)
		}
		mu.Lock()
		for oid, want := range acked {
			m, err := v2.OSD.Stat(oid)
			if err != nil {
				t.Fatalf("round %d: acked object %d lost: %v", round, oid, err)
			}
			if m.Size != uint64(len(want)) {
				t.Fatalf("round %d: object %d size %d, acked %d", round, oid, m.Size, len(want))
			}
			got := readExtObj(t, v2, oid, len(want))
			w := pending[oid]
			for i := range got {
				if got[i] == want[i] {
					continue
				}
				u := uint64(i)
				if u >= w.off && u < w.off+uint64(len(w.data)) && got[i] == w.data[u-w.off] {
					continue // unacked in-place overwrite's window
				}
				t.Fatalf("round %d: object %d content diverged from acked state at byte %d",
					round, oid, i)
			}
		}
		mu.Unlock()

		fd = blockdev.NewFault(mem)
		v3, err := Open(fd, Options{})
		if err != nil {
			t.Fatalf("round %d re-wrap open: %v", round, err)
		}
		v = v3
	}
}

// refreshSidecarSum rewrites the durable checksum sidecar entry for block
// b to match content, for tests that patch the raw image to simulate
// state that arrived through legitimate (checksum-maintaining) writes.
func refreshSidecarSum(t *testing.T, dev blockdev.Device, b uint64, content []byte) {
	t.Helper()
	sb, err := readSuperblock(dev)
	if err != nil {
		t.Fatal(err)
	}
	perBlk := uint64(dev.BlockSize() / sumEntrySize)
	i := b - sb.dataStart
	buf := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(sb.csumStart+i/perBlk, buf); err != nil {
		t.Fatal(err)
	}
	e := sumKnown | uint64(crc32.Checksum(content, crcTable))
	binary.LittleEndian.PutUint64(buf[(i%perBlk)*sumEntrySize:], e)
	if err := dev.WriteBlock(sb.csumStart+i/perBlk, buf); err != nil {
		t.Fatal(err)
	}
}
