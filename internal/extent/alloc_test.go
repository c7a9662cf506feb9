package extent

import (
	"bytes"
	"testing"
)

// TestReadAtAllocs pins the heap allocations of an extent read whose leaf
// pages are resident at their measured value, eight for a read across four
// extents of one leaf. A pin scope whose closure starts escaping to the
// heap shows up here as one more allocation per leaf touched.
func TestReadAtAllocs(t *testing.T) {
	tr, _ := newTree(t, Config{MaxExtentBytes: 8192})
	data := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB: 8 extents
	if err := tr.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3*8192)
	read := testing.AllocsPerRun(200, func() {
		if _, err := tr.ReadAt(buf, 4096); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadAt %.0f allocs", read)
	if read > 8 {
		t.Errorf("resident ReadAt: %.0f allocs, want <= 8", read)
	}
}
