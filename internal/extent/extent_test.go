package extent

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/pager"
)

type env struct {
	dev *blockdev.MemDevice
	pg  *pager.Pager
	ba  *buddy.Allocator
}

func newEnv(t *testing.T, blocks uint64) *env {
	t.Helper()
	dev := blockdev.NewMem(blocks, blockdev.DefaultBlockSize)
	return &env{
		dev: dev,
		pg:  pager.New(dev, 512, true),
		ba:  buddy.New(1, blocks-1),
	}
}

func newTree(t *testing.T, cfg Config) (*Tree, *env) {
	t.Helper()
	e := newEnv(t, 16384) // 64 MiB
	tr, err := Create(e.pg, e.ba, cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return tr, e
}

func mustCheck(t *testing.T, tr *Tree) *CheckResult {
	t.Helper()
	res, err := tr.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

func readAll(t *testing.T, tr *Tree) []byte {
	t.Helper()
	out := make([]byte, tr.Size())
	if len(out) == 0 {
		return out
	}
	n, err := tr.ReadAt(out, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt: %v", err)
	}
	if n != len(out) {
		t.Fatalf("ReadAt read %d of %d", n, len(out))
	}
	return out
}

func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i%251)
	}
	return p
}

func TestEmptyObject(t *testing.T) {
	tr, _ := newTree(t, Config{})
	if tr.Size() != 0 {
		t.Errorf("Size = %d", tr.Size())
	}
	if _, err := tr.ReadAt(make([]byte, 1), 0); !errors.Is(err, io.EOF) {
		t.Errorf("read empty = %v, want EOF", err)
	}
	mustCheck(t, tr)
}

func TestWriteReadRoundtrip(t *testing.T) {
	tr, _ := newTree(t, Config{})
	data := pattern(10000, 1)
	if err := tr.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if tr.Size() != 10000 {
		t.Errorf("Size = %d", tr.Size())
	}
	got := readAll(t, tr)
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	mustCheck(t, tr)
}

func TestPartialReads(t *testing.T) {
	tr, _ := newTree(t, Config{})
	data := pattern(5000, 3)
	if err := tr.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	n, err := tr.ReadAt(buf, 1234)
	if err != nil || n != 100 {
		t.Fatalf("ReadAt mid = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data[1234:1334]) {
		t.Error("mid-read mismatch")
	}
	// Read crossing EOF.
	n, err = tr.ReadAt(buf, 4950)
	if !errors.Is(err, io.EOF) || n != 50 {
		t.Errorf("EOF read = %d, %v; want 50, EOF", n, err)
	}
	if !bytes.Equal(buf[:50], data[4950:]) {
		t.Error("tail-read mismatch")
	}
}

func TestOverwriteInPlace(t *testing.T) {
	tr, _ := newTree(t, Config{})
	if err := tr.WriteAt(pattern(8000, 1), 0); err != nil {
		t.Fatal(err)
	}
	patch := pattern(3000, 99)
	if err := tr.WriteAt(patch, 2500); err != nil {
		t.Fatal(err)
	}
	want := pattern(8000, 1)
	copy(want[2500:], patch)
	if !bytes.Equal(readAll(t, tr), want) {
		t.Fatal("overwrite mismatch")
	}
	if tr.Size() != 8000 {
		t.Errorf("Size changed to %d", tr.Size())
	}
	mustCheck(t, tr)
}

func TestOverwriteExtendsObject(t *testing.T) {
	tr, _ := newTree(t, Config{})
	if err := tr.WriteAt(pattern(1000, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteAt(pattern(1000, 2), 500); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 1500 {
		t.Errorf("Size = %d, want 1500", tr.Size())
	}
	got := readAll(t, tr)
	if !bytes.Equal(got[:500], pattern(1000, 1)[:500]) || !bytes.Equal(got[500:], pattern(1000, 2)) {
		t.Fatal("extend-overwrite mismatch")
	}
}

func TestSparseWriteCreatesHole(t *testing.T) {
	tr, _ := newTree(t, Config{})
	if err := tr.WriteAt([]byte("tail"), 100000); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 100004 {
		t.Fatalf("Size = %d", tr.Size())
	}
	res := mustCheck(t, tr)
	if res.Holes == 0 {
		t.Error("no hole recorded for sparse write")
	}
	// Hole reads as zeros.
	buf := make([]byte, 1000)
	if _, err := tr.ReadAt(buf, 50000); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole byte %d = %d", i, b)
		}
	}
	tail := make([]byte, 4)
	if _, err := tr.ReadAt(tail, 100000); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if string(tail) != "tail" {
		t.Errorf("tail = %q", tail)
	}
	// Storage used must be far below logical size.
	if res.AllocatedBytes >= 100004 {
		t.Errorf("sparse object allocated %d bytes", res.AllocatedBytes)
	}
}

func TestWriteIntoHoleMaterializes(t *testing.T) {
	tr, _ := newTree(t, Config{})
	if err := tr.Truncate(50000); err != nil { // all hole
		t.Fatal(err)
	}
	patch := pattern(7000, 5)
	if err := tr.WriteAt(patch, 20000); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 50000)
	copy(want[20000:], patch)
	if !bytes.Equal(readAll(t, tr), want) {
		t.Fatal("hole materialization mismatch")
	}
	res := mustCheck(t, tr)
	if res.Holes < 2 {
		t.Errorf("expected holes on both sides, got %d", res.Holes)
	}
}

func TestInsertMiddle(t *testing.T) {
	tr, _ := newTree(t, Config{})
	base := pattern(10000, 1)
	if err := tr.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	ins := pattern(3000, 77)
	if err := tr.InsertAt(4000, ins); err != nil {
		t.Fatalf("InsertAt: %v", err)
	}
	if tr.Size() != 13000 {
		t.Errorf("Size = %d, want 13000", tr.Size())
	}
	want := append(append(append([]byte{}, base[:4000]...), ins...), base[4000:]...)
	if !bytes.Equal(readAll(t, tr), want) {
		t.Fatal("insert-middle mismatch")
	}
	mustCheck(t, tr)
}

func TestInsertFrontAndEnd(t *testing.T) {
	tr, _ := newTree(t, Config{})
	if err := tr.WriteAt([]byte("middle"), 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertAt(0, []byte("front-")); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertAt(tr.Size(), []byte("-end")); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, tr)); got != "front-middle-end" {
		t.Errorf("got %q", got)
	}
	if err := tr.InsertAt(tr.Size()+1, []byte("x")); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("insert beyond EOF = %v, want ErrOutOfRange", err)
	}
}

func TestDeleteRangeMiddle(t *testing.T) {
	tr, _ := newTree(t, Config{})
	base := pattern(10000, 9)
	if err := tr.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.DeleteRange(3000, 4000); err != nil {
		t.Fatalf("DeleteRange: %v", err)
	}
	if tr.Size() != 6000 {
		t.Errorf("Size = %d, want 6000", tr.Size())
	}
	want := append(append([]byte{}, base[:3000]...), base[7000:]...)
	if !bytes.Equal(readAll(t, tr), want) {
		t.Fatal("delete-range mismatch")
	}
	mustCheck(t, tr)
}

func TestDeleteRangeFreesStorage(t *testing.T) {
	// Small extents so the deleted range covers many whole extents; the
	// two boundary splits each allocate a tail copy, but freeing ~10 full
	// extents must dominate.
	tr, e := newTree(t, Config{MaxExtentBytes: 8192})
	if err := tr.WriteAt(pattern(100000, 1), 0); err != nil {
		t.Fatal(err)
	}
	before := e.ba.FreeBlocks()
	if err := tr.DeleteRange(10000, 80000); err != nil {
		t.Fatal(err)
	}
	after := e.ba.FreeBlocks()
	if after <= before {
		t.Errorf("no blocks freed: %d -> %d", before, after)
	}
	mustCheck(t, tr)
}

func TestDeleteRangeClamps(t *testing.T) {
	tr, _ := newTree(t, Config{})
	if err := tr.WriteAt(pattern(100, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.DeleteRange(50, 1000); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 50 {
		t.Errorf("Size = %d, want 50", tr.Size())
	}
	if err := tr.DeleteRange(500, 10); err != nil {
		t.Errorf("out-of-range delete should no-op: %v", err)
	}
}

func TestTruncateShrinkGrow(t *testing.T) {
	tr, _ := newTree(t, Config{})
	if err := tr.WriteAt(pattern(5000, 4), 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Truncate(2000); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 2000 {
		t.Errorf("Size = %d", tr.Size())
	}
	if !bytes.Equal(readAll(t, tr), pattern(5000, 4)[:2000]) {
		t.Fatal("truncate-shrink mismatch")
	}
	if err := tr.Truncate(3000); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, tr)
	for i := 2000; i < 3000; i++ {
		if got[i] != 0 {
			t.Fatalf("grown byte %d = %d, want 0", i, got[i])
		}
	}
	mustCheck(t, tr)
}

func TestManyExtentsSplitTree(t *testing.T) {
	tr, _ := newTree(t, Config{MaxExtentBytes: 4096})
	// 2000 x 4 KiB extents => tree must grow past one leaf (cap 254).
	data := pattern(4096, 8)
	for i := 0; i < 2000; i++ {
		if err := tr.WriteAt(data, tr.Size()); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if tr.Stats().Splits == 0 {
		t.Error("no node splits despite 2000 extents")
	}
	res := mustCheck(t, tr)
	if res.Bytes != 2000*4096 {
		t.Errorf("Bytes = %d", res.Bytes)
	}
	// Spot-check reads across leaf boundaries.
	buf := make([]byte, 8192)
	if _, err := tr.ReadAt(buf, 254*4096-100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:100], data[4096-100:]) || !bytes.Equal(buf[100:4196], data) {
		t.Error("cross-leaf read mismatch")
	}
}

func TestInsertIntoManyExtents(t *testing.T) {
	tr, _ := newTree(t, Config{MaxExtentBytes: 4096})
	chunk := pattern(4096, 2)
	for i := 0; i < 600; i++ {
		if err := tr.WriteAt(chunk, tr.Size()); err != nil {
			t.Fatal(err)
		}
	}
	ins := pattern(100, 50)
	mid := tr.Size() / 2
	if err := tr.InsertAt(mid+7, ins); err != nil { // unaligned
		t.Fatal(err)
	}
	got := readAll(t, tr)
	if !bytes.Equal(got[mid+7:mid+107], ins) {
		t.Error("inserted bytes wrong")
	}
	if got[mid+6] != chunk[(mid+6)%4096] {
		t.Error("byte before insert corrupted")
	}
	mustCheck(t, tr)
	if tr.Stats().TailCopyBytes == 0 {
		t.Error("unaligned insert should have copied a tail")
	}
	if tr.Stats().TailCopyBytes > 4096 {
		t.Errorf("tail copy %d exceeds one extent", tr.Stats().TailCopyBytes)
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	tr, _ := newTree(t, Config{MaxExtentBytes: 8192})
	if err := tr.WriteAt(pattern(200000, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.DeleteRange(0, tr.Size()); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 0 || tr.ExtentCount() != 0 {
		t.Errorf("size=%d extents=%d after full delete", tr.Size(), tr.ExtentCount())
	}
	if err := tr.WriteAt([]byte("reborn"), 0); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, tr)); got != "reborn" {
		t.Errorf("got %q", got)
	}
	mustCheck(t, tr)
}

func TestPersistenceAcrossReopen(t *testing.T) {
	e := newEnv(t, 16384)
	tr, err := Create(e.pg, e.ba, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(50000, 6)
	if err := tr.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.pg.Sync(); err != nil {
		t.Fatal(err)
	}
	pg2 := pager.New(e.dev, 128, true)
	tr2, err := Open(pg2, e.ba, tr.Root(), 0, Config{}, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if tr2.Size() != 50000 {
		t.Errorf("reopened Size = %d", tr2.Size())
	}
	out := make([]byte, 50000)
	if _, err := tr2.ReadAt(out, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("reopened data mismatch")
	}
	if _, err := tr2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDestroyFreesEverything(t *testing.T) {
	e := newEnv(t, 16384)
	free0 := e.ba.FreeBlocks()
	tr, err := Create(e.pg, e.ba, Config{MaxExtentBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteAt(pattern(300000, 3), 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertAt(1234, pattern(999, 9)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Destroy(nil); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	if got := e.ba.FreeBlocks(); got != free0 {
		t.Errorf("leaked %d blocks after Destroy", free0-got)
	}
	if err := e.ba.CheckFreeIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomOpsAgainstReference drives the tree with random writes,
// inserts, deletes, and truncates, mirroring every operation on a plain
// byte slice, and verifies full equality after each mutation batch.
func TestRandomOpsAgainstReference(t *testing.T) {
	tr, _ := newTree(t, Config{MaxExtentBytes: 4096})
	var ref []byte
	rng := rand.New(rand.NewPCG(2025, 6))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	for op := 0; op < 400; op++ {
		switch rng.IntN(5) {
		case 0, 1: // WriteAt (possibly extending or sparse)
			off := uint64(0)
			if len(ref) > 0 {
				off = uint64(rng.IntN(len(ref) + 2000))
			}
			data := randBytes(1 + rng.IntN(9000))
			if err := tr.WriteAt(data, off); err != nil {
				t.Fatalf("op %d WriteAt(%d, %d): %v", op, off, len(data), err)
			}
			if int(off)+len(data) > len(ref) {
				grown := make([]byte, int(off)+len(data))
				copy(grown, ref)
				ref = grown
			}
			copy(ref[off:], data)
		case 2: // InsertAt
			off := uint64(0)
			if len(ref) > 0 {
				off = uint64(rng.IntN(len(ref) + 1))
			}
			data := randBytes(1 + rng.IntN(5000))
			if err := tr.InsertAt(off, data); err != nil {
				t.Fatalf("op %d InsertAt(%d, %d): %v", op, off, len(data), err)
			}
			ref = append(ref[:off], append(append([]byte{}, data...), ref[off:]...)...)
		case 3: // DeleteRange
			if len(ref) == 0 {
				continue
			}
			off := uint64(rng.IntN(len(ref)))
			n := uint64(1 + rng.IntN(6000))
			if err := tr.DeleteRange(off, n); err != nil {
				t.Fatalf("op %d DeleteRange(%d, %d): %v", op, off, n, err)
			}
			end := off + n
			if end > uint64(len(ref)) {
				end = uint64(len(ref))
			}
			ref = append(ref[:off], ref[end:]...)
		case 4: // Truncate
			target := uint64(rng.IntN(len(ref) + 3000))
			if err := tr.Truncate(target); err != nil {
				t.Fatalf("op %d Truncate(%d): %v", op, target, err)
			}
			if target <= uint64(len(ref)) {
				ref = ref[:target]
			} else {
				grown := make([]byte, target)
				copy(grown, ref)
				ref = grown
			}
		}
		if tr.Size() != uint64(len(ref)) {
			t.Fatalf("op %d: size %d, ref %d", op, tr.Size(), len(ref))
		}
		if op%25 == 0 {
			if !bytes.Equal(readAll(t, tr), ref) {
				t.Fatalf("op %d: content diverged from reference", op)
			}
			mustCheck(t, tr)
		}
	}
	if !bytes.Equal(readAll(t, tr), ref) {
		t.Fatal("final content diverged")
	}
	mustCheck(t, tr)
}

// --- KeyedMap (ablation) tests ---

func TestKeyedMapRoundtrip(t *testing.T) {
	e := newEnv(t, 16384)
	m, err := NewKeyedMap(e.pg, e.ba, Config{MaxExtentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(20000, 1)
	if err := m.Append(data); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 20000)
	if _, err := m.ReadAt(out, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("keyed map read-back mismatch")
	}
}

func TestKeyedMapInsertRenumbers(t *testing.T) {
	e := newEnv(t, 16384)
	m, err := NewKeyedMap(e.pg, e.ba, Config{MaxExtentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(pattern(40960, 1)); err != nil { // 10 extents
		t.Fatal(err)
	}
	if err := m.InsertAt(4096, pattern(100, 9)); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 41060 {
		t.Errorf("Size = %d", m.Size())
	}
	// All 9 extents after the insertion point were renumbered.
	if got := m.RenumberedKeys(); got != 9 {
		t.Errorf("RenumberedKeys = %d, want 9", got)
	}
	out := make([]byte, 41060)
	if _, err := m.ReadAt(out, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	want := append(append(append([]byte{}, pattern(40960, 1)[:4096]...), pattern(100, 9)...), pattern(40960, 1)[4096:]...)
	if !bytes.Equal(out, want) {
		t.Fatal("keyed insert mismatch")
	}
}

func TestKeyedMapMatchesCountedTree(t *testing.T) {
	e := newEnv(t, 32768)
	m, err := NewKeyedMap(e.pg, e.ba, Config{MaxExtentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(e.pg, e.ba, Config{MaxExtentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	var ref []byte
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	// Build identical content through both implementations.
	base := randBytes(30000)
	if err := m.Append(base); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	ref = append(ref, base...)
	for i := 0; i < 30; i++ {
		off := uint64(rng.IntN(len(ref) + 1))
		data := randBytes(1 + rng.IntN(2000))
		if err := m.InsertAt(off, data); err != nil {
			t.Fatalf("keyed InsertAt: %v", err)
		}
		if err := tr.InsertAt(off, data); err != nil {
			t.Fatalf("counted InsertAt: %v", err)
		}
		ref = append(ref[:off], append(append([]byte{}, data...), ref[off:]...)...)

		if len(ref) > 4000 {
			doff := uint64(rng.IntN(len(ref) - 2000))
			dn := uint64(1 + rng.IntN(1500))
			if err := m.DeleteRange(doff, dn); err != nil {
				t.Fatalf("keyed DeleteRange: %v", err)
			}
			if err := tr.DeleteRange(doff, dn); err != nil {
				t.Fatalf("counted DeleteRange: %v", err)
			}
			end := doff + dn
			if end > uint64(len(ref)) {
				end = uint64(len(ref))
			}
			ref = append(ref[:doff], ref[end:]...)
		}
	}
	if m.Size() != uint64(len(ref)) || tr.Size() != uint64(len(ref)) {
		t.Fatalf("sizes: keyed=%d counted=%d ref=%d", m.Size(), tr.Size(), len(ref))
	}
	a := make([]byte, len(ref))
	if _, err := m.ReadAt(a, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	b := make([]byte, len(ref))
	if _, err := tr.ReadAt(b, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(a, ref) {
		t.Error("keyed map diverged from reference")
	}
	if !bytes.Equal(b, ref) {
		t.Error("counted tree diverged from reference")
	}
	if m.RenumberedKeys() == 0 {
		t.Error("keyed map did no renumbering — ablation not exercising the claim")
	}
	mustCheck(t, tr)
}

// TestConcurrentPartialReads: readers of one tree share only its read
// lock, so each partial-block read needs a scratch block of its own.
func TestConcurrentPartialReads(t *testing.T) {
	tr, _ := newTree(t, Config{})
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 7 / 5)
	}
	if err := tr.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 1))
			buf := make([]byte, 700)
			for i := 0; i < 500; i++ {
				off := rng.IntN(len(data) - len(buf))
				if _, err := tr.ReadAt(buf, uint64(off)); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf, data[off:off+len(buf)]) {
					t.Errorf("reader %d: bytes at %d differ", g, off)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
