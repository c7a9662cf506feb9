package btree

import (
	"fmt"
	"testing"
)

// TestHitPathAllocs pins the heap allocations of the resident read path
// at their measured values: a Get down a two-level tree makes three (the
// value copy and one LRU element per page unpinned), a cursor step three
// (key, value, LRU element). A pin scope whose closure starts escaping to
// the heap shows up here as one more allocation per page touched.
func TestHitPathAllocs(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 2000; i++ {
		mustPut(t, tr, fmt.Sprintf("key%05d", i), fmt.Sprintf("val%d", i))
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d: the descent should cross an internal page", tr.Height())
	}
	key := []byte("key01234")
	get := testing.AllocsPerRun(200, func() {
		if _, err := tr.Get(key); err != nil {
			t.Fatal(err)
		}
	})
	c := tr.NewCursor(nil, nil)
	if _, _, ok, err := c.Next(); !ok || err != nil {
		t.Fatalf("prime cursor: ok=%v err=%v", ok, err)
	}
	next := testing.AllocsPerRun(200, func() {
		if _, _, ok, err := c.Next(); !ok || err != nil {
			t.Fatalf("cursor step: ok=%v err=%v", ok, err)
		}
	})
	t.Logf("Get %.0f allocs, Cursor.Next %.0f allocs", get, next)
	if get > 3 {
		t.Errorf("resident Get: %.0f allocs, want <= 3", get)
	}
	if next > 3 {
		t.Errorf("Cursor.Next step: %.0f allocs, want <= 3", next)
	}
}
