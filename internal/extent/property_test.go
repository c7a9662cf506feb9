package extent

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/pager"
)

// TestQuickWriteReadRoundtrip: any sequence of (offset, data) writes reads
// back exactly like the same writes applied to a byte slice.
func TestQuickWriteReadRoundtrip(t *testing.T) {
	f := func(writes []struct {
		Off  uint16
		Seed byte
		Len  uint16
	}) bool {
		tr, _ := newTree(t, Config{MaxExtentBytes: 4096})
		var ref []byte
		for _, w := range writes {
			n := int(w.Len%5000) + 1
			off := uint64(w.Off % 20000)
			data := pattern(n, w.Seed)
			if err := tr.WriteAt(data, off); err != nil {
				return false
			}
			if int(off)+n > len(ref) {
				grown := make([]byte, int(off)+n)
				copy(grown, ref)
				ref = grown
			}
			copy(ref[off:], data)
		}
		if tr.Size() != uint64(len(ref)) {
			return false
		}
		got := readAll(t, tr)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertDeleteInverse: inserting data and deleting the same range
// restores the original content.
func TestQuickInsertDeleteInverse(t *testing.T) {
	f := func(off uint16, seed byte, n uint16) bool {
		tr, _ := newTree(t, Config{MaxExtentBytes: 4096})
		base := pattern(30000, 11)
		if err := tr.WriteAt(base, 0); err != nil {
			return false
		}
		insOff := uint64(off) % 30000
		insLen := int(n%8000) + 1
		ins := pattern(insLen, seed)
		if err := tr.InsertAt(insOff, ins); err != nil {
			return false
		}
		if tr.Size() != uint64(30000+insLen) {
			return false
		}
		if err := tr.DeleteRange(insOff, uint64(insLen)); err != nil {
			return false
		}
		if tr.Size() != 30000 {
			return false
		}
		if _, err := tr.Check(); err != nil {
			return false
		}
		return bytes.Equal(readAll(t, tr), base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTruncateIdempotent: truncating twice to the same size equals
// truncating once, and size invariants hold through grow/shrink cycles.
func TestQuickTruncateIdempotent(t *testing.T) {
	f := func(sizes []uint16) bool {
		tr, _ := newTree(t, Config{MaxExtentBytes: 4096})
		if err := tr.WriteAt(pattern(10000, 3), 0); err != nil {
			return false
		}
		for _, s := range sizes {
			target := uint64(s) % 40000
			if err := tr.Truncate(target); err != nil {
				return false
			}
			if err := tr.Truncate(target); err != nil {
				return false
			}
			if tr.Size() != target {
				return false
			}
		}
		_, err := tr.Check()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestNoLeaksAcrossChurn: after arbitrary churn plus Destroy, every block
// returns to the allocator.
func TestNoLeaksAcrossChurn(t *testing.T) {
	e := newEnv(t, 16384)
	free0 := e.ba.FreeBlocks()
	tr, err := Create(e.pg, e.ba, Config{MaxExtentBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		switch i % 4 {
		case 0:
			if err := tr.WriteAt(pattern(9001, byte(i)), tr.Size()); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := tr.InsertAt(tr.Size()/2, pattern(512, byte(i))); err != nil {
				t.Fatal(err)
			}
		case 2:
			if tr.Size() > 4000 {
				if err := tr.DeleteRange(tr.Size()/3, 2000); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			if err := tr.Truncate(tr.Size() / 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Destroy(nil); err != nil {
		t.Fatal(err)
	}
	if got := e.ba.FreeBlocks(); got != free0 {
		t.Errorf("leaked %d blocks through churn", free0-got)
	}
}

// TestReadAtEdgeCases covers the io.ReaderAt contract corners.
func TestReadAtEdgeCases(t *testing.T) {
	tr, _ := newTree(t, Config{})
	if err := tr.WriteAt(pattern(100, 1), 0); err != nil {
		t.Fatal(err)
	}
	// Zero-length read.
	n, err := tr.ReadAt(nil, 50)
	if n != 0 || err != nil {
		t.Errorf("zero-length read = %d, %v", n, err)
	}
	// Read exactly at EOF boundary.
	buf := make([]byte, 10)
	n, err = tr.ReadAt(buf, 100)
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Errorf("read at EOF = %d, %v", n, err)
	}
	// Read exactly ending at EOF: full read, EOF signalled.
	n, err = tr.ReadAt(buf, 90)
	if n != 10 || !errors.Is(err, io.EOF) {
		t.Errorf("read to EOF = %d, %v", n, err)
	}
}

// TestCountedTreeReopenUnderChurn interleaves persistence with mutation.
func TestCountedTreeReopenUnderChurn(t *testing.T) {
	e := newEnv(t, 16384)
	tr, err := Create(e.pg, e.ba, Config{MaxExtentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ref := pattern(50000, 5)
	if err := tr.WriteAt(ref, 0); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := e.pg.Sync(); err != nil {
			t.Fatal(err)
		}
		pg := pager.New(e.dev, 256, true)
		tr, err = Open(pg, e.ba, tr.Root(), 0, Config{MaxExtentBytes: 4096}, nil)
		if err != nil {
			t.Fatalf("round %d open: %v", round, err)
		}
		ins := pattern(100, byte(round))
		pos := uint64(1000 * (round + 1))
		if err := tr.InsertAt(pos, ins); err != nil {
			t.Fatal(err)
		}
		ref = append(ref[:pos], append(append([]byte{}, ins...), ref[pos:]...)...)
		e.pg = pg
	}
	got := make([]byte, len(ref))
	if _, err := tr.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("content diverged across reopen/mutate rounds")
	}
}
