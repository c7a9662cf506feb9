package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// TestQuickOpsMatchReference drives the tree with generated operation
// sequences via testing/quick and compares every observable against a
// reference map.
func TestQuickOpsMatchReference(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		tr, _ := newTree(t)
		ref := map[string]string{}
		rng := rand.New(rand.NewPCG(seed, 99))
		for _, op := range ops {
			key := fmt.Sprintf("k%03d", op%512)
			switch op % 3 {
			case 0:
				val := fmt.Sprintf("v%d", rng.Uint32())
				if err := tr.Put([]byte(key), []byte(val)); err != nil {
					return false
				}
				ref[key] = val
			case 1:
				err := tr.Delete([]byte(key))
				_, had := ref[key]
				if had && err != nil {
					return false
				}
				if !had && !errors.Is(err, ErrNotFound) {
					return false
				}
				delete(ref, key)
			case 2:
				v, err := tr.Get([]byte(key))
				want, had := ref[key]
				if had && (err != nil || string(v) != want) {
					return false
				}
				if !had && !errors.Is(err, ErrNotFound) {
					return false
				}
			}
		}
		if tr.Len() != uint64(len(ref)) {
			return false
		}
		if _, err := tr.Check(); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScanIsSorted: any insertion set scans back in sorted order
// with no duplicates or losses.
func TestQuickScanIsSorted(t *testing.T) {
	f := func(keys [][]byte) bool {
		tr, _ := newTree(t)
		ref := map[string]bool{}
		for _, k := range keys {
			if len(k) == 0 || len(k) > tr.MaxKeyLen() {
				continue
			}
			if err := tr.Put(k, []byte("v")); err != nil {
				return false
			}
			ref[string(k)] = true
		}
		var got []string
		if err := tr.Scan(nil, nil, func(k, _ []byte) bool {
			got = append(got, string(k))
			return true
		}); err != nil {
			return false
		}
		if len(got) != len(ref) {
			return false
		}
		if !sort.StringsAreSorted(got) {
			return false
		}
		for _, k := range got {
			if !ref[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFloor(t *testing.T) {
	tr, _ := newTree(t)
	if _, _, err := tr.Floor([]byte("x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Floor on empty = %v", err)
	}
	for i := 0; i < 500; i += 10 {
		mustPut(t, tr, fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i))
	}
	// Exact hit.
	k, v, err := tr.Floor([]byte("k0100"))
	if err != nil || string(k) != "k0100" || string(v) != "v100" {
		t.Errorf("exact Floor = %q/%q, %v", k, v, err)
	}
	// Between keys: floor is the lower neighbour.
	k, _, err = tr.Floor([]byte("k0105"))
	if err != nil || string(k) != "k0100" {
		t.Errorf("between Floor = %q, %v", k, err)
	}
	// Below all keys.
	if _, _, err := tr.Floor([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Errorf("below-all Floor = %v", err)
	}
	// Above all keys: floor is the max.
	k, _, err = tr.Floor([]byte("zzz"))
	if err != nil || string(k) != "k0490" {
		t.Errorf("above-all Floor = %q, %v", k, err)
	}
}

// TestFloorAcrossLeafBoundaries exercises the previous-leaf hop.
func TestFloorAcrossLeafBoundaries(t *testing.T) {
	tr, _ := newTree(t)
	// Many keys so multiple leaves exist.
	for i := 0; i < 2000; i++ {
		mustPut(t, tr, fmt.Sprintf("k%06d", i*2), "v") // even keys only
	}
	// Query odd keys: floor must be the even key below, including at
	// leaf boundaries.
	for i := 1; i < 4000; i += 97 {
		target := fmt.Sprintf("k%06d", i)
		k, _, err := tr.Floor([]byte(target))
		if err != nil {
			t.Fatalf("Floor(%s): %v", target, err)
		}
		want := fmt.Sprintf("k%06d", i-1)
		if i%2 == 0 {
			want = target
		}
		if string(k) != want {
			t.Fatalf("Floor(%s) = %s, want %s", target, k, want)
		}
	}
}

// TestQuickFloorMatchesReference: Floor agrees with a sorted-slice oracle.
func TestQuickFloorMatchesReference(t *testing.T) {
	tr, _ := newTree(t)
	var keys []string
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("k%05d", i*7)
		mustPut(t, tr, k, "v")
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f := func(probe uint16) bool {
		target := fmt.Sprintf("k%05d", int(probe)%2200)
		k, _, err := tr.Floor([]byte(target))
		// Oracle: greatest key <= target.
		idx := sort.SearchStrings(keys, target)
		if idx < len(keys) && keys[idx] == target {
			return err == nil && string(k) == target
		}
		if idx == 0 {
			return errors.Is(err, ErrNotFound)
		}
		return err == nil && string(k) == keys[idx-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLargeKeysNearLimit stresses splits with keys at the maximum size.
func TestLargeKeysNearLimit(t *testing.T) {
	tr, _ := newTree(t)
	max := tr.MaxKeyLen()
	for i := 0; i < 60; i++ {
		k := bytes.Repeat([]byte{byte('a' + i%26)}, max-2)
		k = append(k, byte(i/26), byte(i%26))
		if err := tr.Put(k, bytes.Repeat([]byte("V"), 900)); err != nil {
			t.Fatalf("Put big key %d: %v", i, err)
		}
	}
	mustCheck(t, tr)
	if tr.Len() != 60 {
		t.Errorf("Len = %d", tr.Len())
	}
}

// TestCountRangeMatchesScan: leaf-arithmetic counting agrees with a
// capped ScanPrefix count on trees of height three or more, for prefixes
// whose keys span many leaves, prefixes with no keys, an all-0xFF prefix
// (no prefixEnd), and caps below, at and above the true count.
func TestCountRangeMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		tr, _ := newTree(t)
		rng := rand.New(rand.NewPCG(seed, 7))
		// Keys are a two-byte group, 200-400 filler bytes and a sequence
		// number, so a leaf holds at most 20 of them and a group of 60
		// spans several leaves.
		const maxPerLeaf = 4096 / 200
		groups := [][]byte{{0x00, 0x00}, {0x00, 0xFF}, {0x41, 0x01}, {0x41, 0x02}, {0x7F, 0x00}, {0xFF, 0x00}, {0xFF, 0xFF}}
		var keys [][]byte
		widest := 0
		for _, g := range groups {
			n := rng.IntN(61)
			widest = max(widest, n)
			for i := 0; i < n; i++ {
				k := append(append([]byte(nil), g...), bytes.Repeat([]byte{byte(rng.IntN(256))}, 200+rng.IntN(201))...)
				k = append(k, byte(i>>8), byte(i))
				keys = append(keys, k)
				if err := tr.Put(k, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Deletes leave sparse (and possibly empty) leaves behind.
		for _, k := range keys {
			if rng.IntN(5) == 0 {
				if err := tr.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
		}
		if tr.Height() < 3 || widest <= maxPerLeaf {
			t.Fatalf("seed %d: height %d, widest group %d: the tree is too small to test", seed, tr.Height(), widest)
		}
		prefixes := [][]byte{{}, {0x00}, {0x41}, {0x42}, {0xFF}, {0xFF, 0xFF}, {0xFF, 0xFF, 0xFF}, {0x7F, 0x00}, {0x10}}
		prefixes = append(prefixes, groups...)
		for _, k := range keys[:10] {
			prefixes = append(prefixes, k[:3], k)
		}
		for _, pfx := range prefixes {
			total := 0
			if err := tr.ScanPrefix(pfx, func(_, _ []byte) bool { total++; return true }); err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int{0, 1, 7, total, total + 1, 1024} {
				want := total
				if limit > 0 {
					want = min(total, limit)
				}
				got, err := tr.CountRange(pfx, prefixEnd(pfx), limit)
				if err != nil || got != want {
					t.Fatalf("seed %d: CountRange(%x…, limit %d) = %d, %v; want %d", seed, pfx[:min(len(pfx), 4)], limit, got, err, want)
				}
			}
		}
		if prefixEnd([]byte{0xFF, 0xFF}) != nil {
			t.Fatal("prefixEnd of an all-0xFF prefix should be nil")
		}
		// Bounds that are keys themselves, in either order.
		for i := 0; i < 50; i++ {
			lo, hi := keys[rng.IntN(len(keys))], keys[rng.IntN(len(keys))]
			want := 0
			if err := tr.Scan(lo, hi, func(_, _ []byte) bool { want++; return true }); err != nil {
				t.Fatal(err)
			}
			if got, err := tr.CountRange(lo, hi, 0); err != nil || got != want {
				t.Fatalf("seed %d: CountRange over keys %d..%d = %d, %v; want %d", seed, lo[len(lo)-1], hi[len(hi)-1], got, err, want)
			}
		}
	}
}
