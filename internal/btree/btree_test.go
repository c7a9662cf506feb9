package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/pager"
)

// testEnv bundles a device, pager, and buddy-backed page allocator.
type testEnv struct {
	dev   *blockdev.MemDevice
	pg    *pager.Pager
	alloc *buddyPages
}

// buddyPages adapts the buddy allocator to single-page allocation.
type buddyPages struct {
	b *buddy.Allocator
}

func (a *buddyPages) AllocPage() (uint64, error) { return a.b.Alloc(1) }
func (a *buddyPages) FreePage(no uint64) error   { return a.b.Free(no, 1) }

func newEnv(t *testing.T, blocks uint64, cacheCap int) *testEnv {
	t.Helper()
	dev := blockdev.NewMem(blocks, blockdev.DefaultBlockSize)
	pg := pager.New(dev, cacheCap, true)
	return &testEnv{dev: dev, pg: pg, alloc: &buddyPages{buddy.New(1, blocks-1)}}
}

func newTree(t *testing.T) (*Tree, *testEnv) {
	t.Helper()
	env := newEnv(t, 4096, 256)
	tr, err := Create(env.pg, env.alloc)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return tr, env
}

func mustPut(t *testing.T, tr *Tree, k, v string) {
	t.Helper()
	if err := tr.Put([]byte(k), []byte(v)); err != nil {
		t.Fatalf("Put(%q): %v", k, err)
	}
}

func mustCheck(t *testing.T, tr *Tree) *CheckResult {
	t.Helper()
	res, err := tr.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

func TestEmptyTree(t *testing.T) {
	tr, _ := newTree(t)
	if _, err := tr.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on empty = %v, want ErrNotFound", err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty tree len=%d height=%d, want 0/1", tr.Len(), tr.Height())
	}
	mustCheck(t, tr)
}

func TestPutGetSingle(t *testing.T) {
	tr, _ := newTree(t)
	mustPut(t, tr, "hello", "world")
	v, err := tr.Get([]byte("hello"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(v) != "world" {
		t.Errorf("Get = %q, want %q", v, "world")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

func TestPutReplace(t *testing.T) {
	tr, _ := newTree(t)
	mustPut(t, tr, "k", "v1")
	mustPut(t, tr, "k", "v2")
	v, err := tr.Get([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v2" {
		t.Errorf("Get = %q, want v2", v)
	}
	if tr.Len() != 1 {
		t.Errorf("Len after replace = %d, want 1", tr.Len())
	}
}

func TestHas(t *testing.T) {
	tr, _ := newTree(t)
	mustPut(t, tr, "a", "1")
	if ok, _ := tr.Has([]byte("a")); !ok {
		t.Error("Has(a) = false")
	}
	if ok, _ := tr.Has([]byte("b")); ok {
		t.Error("Has(b) = true")
	}
}

func TestEmptyValueAndEmptyKey(t *testing.T) {
	tr, _ := newTree(t)
	mustPut(t, tr, "", "meta") // the paper's NULL-key metadata slot
	mustPut(t, tr, "k", "")
	v, err := tr.Get([]byte(""))
	if err != nil || string(v) != "meta" {
		t.Errorf("Get(empty key) = %q, %v", v, err)
	}
	v, err = tr.Get([]byte("k"))
	if err != nil || len(v) != 0 {
		t.Errorf("Get(k) = %q, %v; want empty", v, err)
	}
}

func TestKeyTooBig(t *testing.T) {
	tr, _ := newTree(t)
	big := make([]byte, tr.MaxKeyLen()+1)
	if err := tr.Put(big, []byte("v")); !errors.Is(err, ErrKeyTooBig) {
		t.Errorf("Put(oversized key) = %v, want ErrKeyTooBig", err)
	}
}

func TestSplitsManyKeys(t *testing.T) {
	tr, _ := newTree(t)
	const n = 2000
	for i := 0; i < n; i++ {
		mustPut(t, tr, fmt.Sprintf("key-%06d", i), fmt.Sprintf("value-%d", i))
	}
	if tr.Height() < 2 {
		t.Errorf("height = %d after %d inserts, expected splits", tr.Height(), n)
	}
	if tr.Len() != n {
		t.Errorf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i += 97 {
		v, err := tr.Get([]byte(fmt.Sprintf("key-%06d", i)))
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if string(v) != fmt.Sprintf("value-%d", i) {
			t.Errorf("Get(%d) = %q", i, v)
		}
	}
	res := mustCheck(t, tr)
	if res.Keys != n {
		t.Errorf("check found %d keys, want %d", res.Keys, n)
	}
	if tr.Stats().Splits == 0 {
		t.Error("no splits recorded")
	}
}

func TestReverseInsertionOrder(t *testing.T) {
	tr, _ := newTree(t)
	const n = 1000
	for i := n - 1; i >= 0; i-- {
		mustPut(t, tr, fmt.Sprintf("key-%06d", i), "v")
	}
	mustCheck(t, tr)
	if tr.Len() != n {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestDeleteBasic(t *testing.T) {
	tr, _ := newTree(t)
	mustPut(t, tr, "a", "1")
	mustPut(t, tr, "b", "2")
	if err := tr.Delete([]byte("a")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := tr.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Error("deleted key still present")
	}
	if v, err := tr.Get([]byte("b")); err != nil || string(v) != "2" {
		t.Errorf("survivor Get = %q, %v", v, err)
	}
	if err := tr.Delete([]byte("zz")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(missing) = %v, want ErrNotFound", err)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

func TestDeleteAllTriggersMergesAndCollapse(t *testing.T) {
	tr, _ := newTree(t)
	const n = 3000
	for i := 0; i < n; i++ {
		mustPut(t, tr, fmt.Sprintf("key-%06d", i), fmt.Sprintf("some-longer-value-%d", i))
	}
	grown := tr.Height()
	if grown < 2 {
		t.Fatal("tree did not grow")
	}
	for i := 0; i < n; i++ {
		if err := tr.Delete([]byte(fmt.Sprintf("key-%06d", i))); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting all", tr.Len())
	}
	if tr.Stats().Merges == 0 {
		t.Error("no merges recorded")
	}
	if tr.Height() >= grown {
		t.Errorf("height %d did not shrink from %d", tr.Height(), grown)
	}
	mustCheck(t, tr)
}

func TestDeleteReleasesPagesForReuse(t *testing.T) {
	env := newEnv(t, 4096, 256)
	tr, err := Create(env.pg, env.alloc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), bytes.Repeat([]byte("x"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Delete([]byte(fmt.Sprintf("k%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	freeAfter := env.alloc.b.FreeBlocks()
	used := env.alloc.b.Size() - freeAfter
	// All that should remain is the header, the (empty) root, and any
	// unmerged stragglers; lazy rebalancing tolerates a few.
	if used > 20 {
		t.Errorf("%d pages still allocated after full delete; merge-back broken", used)
	}
}

func TestRandomOpsAgainstReference(t *testing.T) {
	tr, _ := newTree(t)
	ref := make(map[string]string)
	rng := rand.New(rand.NewPCG(7, 11))
	keyFor := func() string { return fmt.Sprintf("key-%05d", rng.IntN(5000)) }
	for op := 0; op < 20000; op++ {
		switch rng.IntN(10) {
		case 0, 1, 2, 3, 4, 5: // put
			k := keyFor()
			v := fmt.Sprintf("val-%d", op)
			if err := tr.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			ref[k] = v
		case 6, 7: // delete
			k := keyFor()
			err := tr.Delete([]byte(k))
			_, inRef := ref[k]
			if inRef && err != nil {
				t.Fatalf("Delete(%q) = %v, want success", k, err)
			}
			if !inRef && !errors.Is(err, ErrNotFound) {
				t.Fatalf("Delete(%q) = %v, want ErrNotFound", k, err)
			}
			delete(ref, k)
		default: // get
			k := keyFor()
			v, err := tr.Get([]byte(k))
			want, inRef := ref[k]
			if inRef {
				if err != nil || string(v) != want {
					t.Fatalf("Get(%q) = %q, %v; want %q", k, v, err, want)
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(%q) = %v, want ErrNotFound", k, err)
			}
		}
	}
	if tr.Len() != uint64(len(ref)) {
		t.Errorf("Len = %d, ref has %d", tr.Len(), len(ref))
	}
	res := mustCheck(t, tr)
	if res.Keys != uint64(len(ref)) {
		t.Errorf("check Keys = %d, want %d", res.Keys, len(ref))
	}
	// Full scan must equal sorted reference.
	var keys []string
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	err := tr.Scan(nil, nil, func(k, v []byte) bool {
		if i >= len(keys) {
			t.Fatalf("scan yielded extra key %q", k)
		}
		if string(k) != keys[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, k, keys[i])
		}
		if string(v) != ref[keys[i]] {
			t.Fatalf("scan[%d] value = %q, want %q", i, v, ref[keys[i]])
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Errorf("scan yielded %d keys, want %d", i, len(keys))
	}
}

func TestVariableSizeKeysAndValues(t *testing.T) {
	tr, _ := newTree(t)
	rng := rand.New(rand.NewPCG(3, 9))
	ref := make(map[string]string)
	for i := 0; i < 500; i++ {
		klen := 1 + rng.IntN(tr.MaxKeyLen()-1)
		vlen := rng.IntN(3000)
		k := make([]byte, klen)
		v := make([]byte, vlen)
		for j := range k {
			k[j] = byte('a' + rng.IntN(26))
		}
		for j := range v {
			v[j] = byte(rng.IntN(256))
		}
		if err := tr.Put(k, v); err != nil {
			t.Fatalf("Put len(k)=%d len(v)=%d: %v", klen, vlen, err)
		}
		ref[string(k)] = string(v)
	}
	for k, want := range ref {
		v, err := tr.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if string(v) != want {
			t.Fatalf("value mismatch for key len %d", len(k))
		}
	}
	mustCheck(t, tr)
}

func TestOverflowValues(t *testing.T) {
	tr, env := newTree(t)
	big := bytes.Repeat([]byte("abcdefgh"), 4096) // 32 KiB
	if err := tr.Put([]byte("big"), big); err != nil {
		t.Fatalf("Put big: %v", err)
	}
	v, err := tr.Get([]byte("big"))
	if err != nil {
		t.Fatalf("Get big: %v", err)
	}
	if !bytes.Equal(v, big) {
		t.Fatal("big value corrupted")
	}
	mustCheck(t, tr)

	// Replacing must free the old chain.
	before := env.alloc.b.FreeBlocks()
	if err := tr.Put([]byte("big"), []byte("small now")); err != nil {
		t.Fatal(err)
	}
	after := env.alloc.b.FreeBlocks()
	if after <= before {
		t.Errorf("overflow chain not freed on replace: free %d -> %d", before, after)
	}
	v, err = tr.Get([]byte("big"))
	if err != nil || string(v) != "small now" {
		t.Errorf("Get after replace = %q, %v", v, err)
	}

	// Deleting an overflowed value must free its chain.
	if err := tr.Put([]byte("big2"), big); err != nil {
		t.Fatal(err)
	}
	before = env.alloc.b.FreeBlocks()
	if err := tr.Delete([]byte("big2")); err != nil {
		t.Fatal(err)
	}
	if env.alloc.b.FreeBlocks() <= before {
		t.Error("overflow chain not freed on delete")
	}
	mustCheck(t, tr)
}

func TestScanRange(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 100; i++ {
		mustPut(t, tr, fmt.Sprintf("k%03d", i), fmt.Sprintf("%d", i))
	}
	var got []string
	err := tr.Scan([]byte("k010"), []byte("k020"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "k010" || got[9] != "k019" {
		t.Errorf("range scan = %v", got)
	}
	// Early stop.
	count := 0
	err = tr.Scan(nil, nil, func(k, v []byte) bool {
		count++
		return count < 5
	})
	if err != nil || count != 5 {
		t.Errorf("early-stop scan count = %d, err %v", count, err)
	}
}

func TestScanPrefix(t *testing.T) {
	tr, _ := newTree(t)
	mustPut(t, tr, "app/one", "1")
	mustPut(t, tr, "app/two", "2")
	mustPut(t, tr, "apple", "3")
	mustPut(t, tr, "b", "4")
	var got []string
	if err := tr.ScanPrefix([]byte("app/"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "app/one" || got[1] != "app/two" {
		t.Errorf("prefix scan = %v", got)
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct {
		in   string
		want []byte
	}{
		{"abc", []byte("abd")},
		{"a\xff", []byte("b")},
	}
	for _, c := range cases {
		if got := prefixEnd([]byte(c.in)); !bytes.Equal(got, c.want) {
			t.Errorf("prefixEnd(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := prefixEnd([]byte{0xFF, 0xFF}); got != nil {
		t.Errorf("prefixEnd(all-FF) = %v, want nil", got)
	}
}

func TestFirstLast(t *testing.T) {
	tr, _ := newTree(t)
	if _, _, err := tr.First(); !errors.Is(err, ErrNotFound) {
		t.Errorf("First on empty = %v", err)
	}
	if _, _, err := tr.Last(); !errors.Is(err, ErrNotFound) {
		t.Errorf("Last on empty = %v", err)
	}
	for i := 0; i < 500; i++ {
		mustPut(t, tr, fmt.Sprintf("k%04d", i), "v")
	}
	k, _, err := tr.First()
	if err != nil || string(k) != "k0000" {
		t.Errorf("First = %q, %v", k, err)
	}
	k, _, err = tr.Last()
	if err != nil || string(k) != "k0499" {
		t.Errorf("Last = %q, %v", k, err)
	}
}

func TestCount(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 50; i++ {
		mustPut(t, tr, fmt.Sprintf("k%03d", i), "v")
	}
	n, err := tr.CountRange([]byte("k010"), []byte("k030"), 0)
	if err != nil || n != 20 {
		t.Errorf("CountRange = %d, %v; want 20", n, err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	env := newEnv(t, 4096, 64)
	tr, err := Create(env.pg, env.alloc)
	if err != nil {
		t.Fatal(err)
	}
	hdr := tr.HeaderPage()
	for i := 0; i < 800; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.pg.Sync(); err != nil {
		t.Fatal(err)
	}
	// Reopen through a fresh pager over the same device.
	pg2 := pager.New(env.dev, 64, true)
	tr2, err := Open(pg2, env.alloc, hdr)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if tr2.Len() != 800 {
		t.Errorf("reopened Len = %d, want 800", tr2.Len())
	}
	for i := 0; i < 800; i += 37 {
		v, err := tr2.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("reopened Get(%d) = %q, %v", i, v, err)
		}
	}
	if _, err := tr2.Check(); err != nil {
		t.Fatalf("reopened Check: %v", err)
	}
}

// TestReopenIgnoresStaleHeaderCount: images written while the header
// still kept a key count carry one in bytes 24–31, and a crash could
// leave it stale. Those bytes are reserved now: Len, Check and a full
// scan agree on the leaves whatever they hold.
func TestReopenIgnoresStaleHeaderCount(t *testing.T) {
	env := newEnv(t, 4096, 64)
	tr, err := Create(env.pg, env.alloc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		mustPut(t, tr, fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 600; i += 3 {
		if err := tr.Delete([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.pg.Sync(); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, env.dev.BlockSize())
	if err := env.dev.ReadBlock(tr.HeaderPage(), hdr); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(hdr[24:], 12345)
	if err := env.dev.WriteBlock(tr.HeaderPage(), hdr); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(pager.New(env.dev, 64, true), env.alloc, tr.HeaderPage())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	scanned := uint64(0)
	if err := tr2.Scan(nil, nil, func(_, _ []byte) bool { scanned++; return true }); err != nil {
		t.Fatal(err)
	}
	res, err := tr2.Check()
	if err != nil {
		t.Fatalf("Check over a stale header count: %v", err)
	}
	if n := tr2.Len(); n != 400 || scanned != 400 || res.Keys != 400 {
		t.Fatalf("Len %d, scan %d, Check %d keys; want 400 each", n, scanned, res.Keys)
	}
}

// TestPutDirtiesOnlyItsLeaf: no record owns a per-tree key count, so a
// put that does not split pins its descent path and dirties its leaf,
// and leaves the header page alone.
func TestPutDirtiesOnlyItsLeaf(t *testing.T) {
	tr, env := newTree(t)
	for i := 0; i < 1000; i++ {
		mustPut(t, tr, fmt.Sprintf("k%04d", i*2), "v")
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d: the tree never split", tr.Height())
	}
	if err := env.pg.Sync(); err != nil {
		t.Fatal(err)
	}
	// The ascending load packed every leaf but the rightmost; only that
	// one has room for another cell.
	before, splits := env.pg.Stats(), tr.Stats().Splits
	mustPut(t, tr, "k1999", "v")
	after := env.pg.Stats()
	if tr.Stats().Splits != splits {
		t.Fatal("the put split its leaf")
	}
	if d := after.Dirty - before.Dirty; d != 1 {
		t.Errorf("a put dirtied %d pages, want 1 (its leaf)", d)
	}
	if pins := after.Hits + after.Misses - before.Hits - before.Misses; pins != int64(tr.Height()) {
		t.Errorf("a put pinned %d pages, want %d (its descent path)", pins, tr.Height())
	}
}

func TestOpenRejectsNonHeader(t *testing.T) {
	env := newEnv(t, 128, 16)
	tr, err := Create(env.pg, env.alloc)
	if err != nil {
		t.Fatal(err)
	}
	_ = tr
	if _, err := Open(env.pg, env.alloc, 99); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open(non-header) = %v, want ErrCorrupt", err)
	}
}

func TestConcurrentReaders(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 1000; i++ {
		mustPut(t, tr, fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%04d", (w*131+i)%1000)
				v, err := tr.Get([]byte(k))
				if err != nil {
					t.Errorf("Get(%s): %v", k, err)
					return
				}
				if len(v) == 0 {
					t.Errorf("Get(%s) empty", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConcurrentMixedOps(t *testing.T) {
	tr, _ := newTree(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := []byte(fmt.Sprintf("w%d-k%04d", w, i))
				if err := tr.Put(k, []byte("v")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, err := tr.Get(k); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if i%3 == 0 {
					if err := tr.Delete(k); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	mustCheck(t, tr)
}

func TestTraversalStats(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 2000; i++ {
		mustPut(t, tr, fmt.Sprintf("k%05d", i), "v")
	}
	base := tr.Stats()
	if _, err := tr.Get([]byte("k01000")); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Descents != base.Descents+1 {
		t.Errorf("Descents delta = %d, want 1", s.Descents-base.Descents)
	}
	levels := s.LevelsTouched - base.LevelsTouched
	if levels != int64(tr.Height()) {
		t.Errorf("LevelsTouched delta = %d, want height %d", levels, tr.Height())
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	tr, env := newTree(t)
	for i := 0; i < 500; i++ {
		mustPut(t, tr, fmt.Sprintf("k%04d", i), "v")
	}
	if err := env.pg.Sync(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a leaf: find a leaf page via the check walk, then scribble.
	res := mustCheck(t, tr)
	if len(res.AllPages) < 3 {
		t.Fatal("tree too small for corruption test")
	}
	// Scribble over every non-header page until Check complains.
	pg2 := pager.New(env.dev, 64, true)
	tr2, err := Open(pg2, env.alloc, tr.HeaderPage())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockdev.DefaultBlockSize)
	target := res.AllPages[len(res.AllPages)-1]
	if err := env.dev.ReadBlock(target, buf); err != nil {
		t.Fatal(err)
	}
	for i := hdrSize; i < len(buf); i++ {
		buf[i] ^= 0xA5
	}
	if err := env.dev.WriteBlock(target, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.Check(); err == nil {
		t.Error("Check accepted a corrupted page")
	}
}

func TestPutManyMatchesPut(t *testing.T) {
	many, _ := newTree(t)
	one, _ := newTree(t)
	rng := rand.New(rand.NewPCG(42, 7))
	const n = 500
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", rng.IntN(n*4)))
		vals[i] = []byte(fmt.Sprintf("val-%d", i))
	}
	if err := many.PutMany(keys, vals); err != nil {
		t.Fatalf("PutMany: %v", err)
	}
	for i := range keys {
		if err := one.Put(keys[i], vals[i]); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if many.Len() != one.Len() {
		t.Fatalf("PutMany len %d != Put len %d", many.Len(), one.Len())
	}
	// Duplicate keys must resolve last-wins in input order, same as
	// sequential Put.
	for i := range keys {
		want, err := one.Get(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := many.Get(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %q: PutMany value %q, Put value %q", keys[i], got, want)
		}
	}
	if _, err := many.Check(); err != nil {
		t.Fatalf("invariants after PutMany: %v", err)
	}
}

func TestPutManyEmptyAndMismatch(t *testing.T) {
	tr, _ := newTree(t)
	if err := tr.PutMany(nil, nil); err != nil {
		t.Errorf("empty PutMany: %v", err)
	}
	if err := tr.PutMany([][]byte{[]byte("a")}, nil); err == nil {
		t.Error("mismatched lengths did not error")
	}
}
