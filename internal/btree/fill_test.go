package btree

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/pager"
)

// TestLeafFillByInsertOrder loads trees in ascending, descending and
// random key order, with small and near-max cells, and holds each to the
// fill its order gives. An ascending load splits every full leaf at its
// end, so each leaf it leaves behind has no room for another cell; with
// small cells that is a fill of at least 0.95, where byte-midpoint splits
// alone leave about 0.5. Descending and random loads split at the
// midpoint; random must keep the fill those splits alone reach on the
// same keys (midFill: 0.744 and 0.544 with every split at the midpoint).
func TestLeafFillByInsertOrder(t *testing.T) {
	sizes := []struct {
		name       string
		n          int
		klen, vlen int
		midFill    float64 // random order, midpoint splits only
	}{
		{"small", 4000, 12, 8, 0.74},
		// MaxKeyLen is 512 and maxInlineValue 1024 at 4 KiB blocks: two
		// such cells fill a leaf.
		{"near-max", 300, 500, 1000, 0.54},
	}
	for _, sz := range sizes {
		keys := make([][]byte, sz.n)
		for i := range keys {
			keys[i] = append([]byte(fmt.Sprintf("%08d", i)), bytes.Repeat([]byte{'k'}, sz.klen-8)...)
		}
		val := bytes.Repeat([]byte{'v'}, sz.vlen)
		cellLen := len(encodeLeafCell(nil, keys[0], val, uint64(len(val)), 0)) + 2
		orders := map[string][]int{
			"ascending":  make([]int, sz.n),
			"descending": make([]int, sz.n),
			"random":     rand.New(rand.NewPCG(1, 2)).Perm(sz.n),
		}
		for i := range sz.n {
			orders["ascending"][i] = i
			orders["descending"][i] = sz.n - 1 - i
		}
		for _, order := range []string{"ascending", "descending", "random"} {
			t.Run(sz.name+"/"+order, func(t *testing.T) {
				tr, env := newTree(t)
				for _, i := range orders[order] {
					if err := tr.Put(keys[i], val); err != nil {
						t.Fatal(err)
					}
				}
				res := mustCheck(t, tr)
				if res.Keys != uint64(sz.n) || res.Leaves < 2 {
					t.Fatalf("%d keys in %d leaves, want %d keys in several", res.Keys, res.Leaves, sz.n)
				}
				fill := res.LeafFill()
				t.Logf("%d leaves, fill %.3f", res.Leaves, fill)
				switch order {
				case "ascending":
					// Every leaf but the rightmost is full.
					roomy := 0
					for _, pno := range res.AllPages {
						var p pageRef
						if err := env.pg.With(pno, func(pg *pager.Page) error {
							p = pageRef{append([]byte(nil), pg.Data()...)}
							return nil
						}); err != nil {
							t.Fatal(err)
						}
						if p.typ() == pageLeaf && p.ptrA() != 0 && len(p.data)-hdrSize-p.usedBytes() >= cellLen {
							roomy++
						}
					}
					if roomy > 0 {
						t.Errorf("%d of %d leaves left behind have room for another cell", roomy, res.Leaves-1)
					}
					if sz.name == "small" && fill < 0.95 {
						t.Errorf("fill %.3f after an ascending load, want ≥ 0.95", fill)
					}
				case "random":
					if fill < sz.midFill {
						t.Errorf("fill %.3f after a random load, want ≥ %.2f (midpoint splits alone)", fill, sz.midFill)
					}
				}
			})
		}
	}
}
