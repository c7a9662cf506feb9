package extent

import (
	"bytes"
	"runtime"
	"testing"
)

// TestReadAtAllocs pins the heap allocations of an extent read whose leaf
// pages are resident at their measured value, three for a read across four
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
	if read > 3 {
		t.Errorf("resident ReadAt: %.0f allocs, want <= 3", read)
	}
}

// TestPartialReadAllocs: a read inside one block goes through a pooled
// scratch block, so a resident 512-byte read allocates less than a block.
func TestPartialReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	tr, _ := newTree(t, Config{})
	data := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB
	if err := tr.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	read := func() {
		if _, err := tr.ReadAt(buf, 100); err != nil {
			t.Fatal(err)
		}
	}
	read() // fills the pool
	if !bytes.Equal(buf, data[100:612]) {
		t.Fatal("partial read returned the wrong bytes")
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("partial ReadAt %d B allocated", perRead)
	if bs := uint64(tr.bs); perRead >= bs {
		t.Errorf("partial ReadAt allocates %d B per read, a block is %d B", perRead, bs)
	}
}
