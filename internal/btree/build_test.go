package btree

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/pager"
	"repro/internal/redo"
	"repro/internal/undo"
)

// pairs is a sorted key/value list; iter yields it to Build.
type pairs struct{ keys, vals [][]byte }

func (ps *pairs) add(k string, v []byte) {
	ps.keys = append(ps.keys, []byte(k))
	ps.vals = append(ps.vals, v)
}

func (ps *pairs) iter() func() ([]byte, []byte, bool, error) {
	i := 0
	return func() ([]byte, []byte, bool, error) {
		if i == len(ps.keys) {
			return nil, nil, false, nil
		}
		i++
		return ps.keys[i-1], ps.vals[i-1], true, nil
	}
}

// cellBytes is what the pairs take in the leaves of a tree built with
// blockSize-byte pages, each cell with its slot: in all, and the most one
// takes. A value is in its cell when the cell fits an empty leaf, as
// Build encodes it.
func (ps *pairs) cellBytes(blockSize int) (total, most int) {
	for i, k := range ps.keys {
		n := encodedLeafCellSize(len(k), len(ps.vals[i]), fitsEmptyLeaf(blockSize, len(k), len(ps.vals[i]))) + 2
		total += n
		most = max(most, n)
	}
	return total, most
}

// assertPackedFull walks the leaf chain: no leaf but the last had room
// for the first cell of the leaf after it.
func assertPackedFull(t *testing.T, tr *Tree) {
	t.Helper()
	first, _, err := tr.seekLeaf(nil)
	if err != nil {
		t.Fatal(err)
	}
	var prevFree int
	for pno, i := first, 0; pno != 0; i++ {
		err := tr.pg.With(pno, func(pg *pager.Page) error {
			p := pageRef{pg.Data()}
			if i > 0 && p.ncells() > 0 {
				if first := p.cellLenAt(p.slot(0)) + 2; first <= prevFree {
					t.Errorf("leaf %d has %d bytes free, and the next leaf's first cell takes %d", i-1, prevFree, first)
				}
			}
			prevFree = p.freeSpace()
			pno = p.ptrA()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// mustBuild builds ps in env unlogged and checks that every page went
// home once and none stays dirty.
func mustBuild(t *testing.T, env *testEnv, ps *pairs) *Tree {
	t.Helper()
	before := env.pg.Stats()
	tr, err := Build(env.pg, env.alloc, nil, ps.iter())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	after := env.pg.Stats()
	res := mustCheck(t, tr)
	if got := after.Writebacks - before.Writebacks; got != int64(len(res.AllPages)) {
		t.Errorf("built %d pages with %d writes, want one each", len(res.AllPages), got)
	}
	if after.Dirty != before.Dirty {
		t.Errorf("Build left %d dirty pages", after.Dirty-before.Dirty)
	}
	return tr
}

// assertTwins holds a built tree to a twin grown by puts of the same
// pairs: the same Get of every key, the same scan, Len and a clean Check.
func assertTwins(t *testing.T, built, grown *Tree, ps *pairs) {
	t.Helper()
	for i, k := range ps.keys {
		got, err := built.Get(k)
		if err != nil || !bytes.Equal(got, ps.vals[i]) {
			t.Fatalf("built Get(%q): %d bytes, %v; want %d", k, len(got), err, len(ps.vals[i]))
		}
		want, err := grown.Get(k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) differs from the grown twin (%v)", k, err)
		}
	}
	if _, err := built.Get([]byte("absent")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(absent) = %v, want ErrNotFound", err)
	}
	cb, cg := built.NewCursor(nil, nil), grown.NewCursor(nil, nil)
	for n := 0; ; n++ {
		kb, vb, okb, err := cb.Next()
		if err != nil {
			t.Fatal(err)
		}
		kg, vg, okg, err := cg.Next()
		if err != nil {
			t.Fatal(err)
		}
		if okb != okg || !bytes.Equal(kb, kg) || !bytes.Equal(vb, vg) {
			t.Fatalf("scan step %d: built (%q, %v), grown (%q, %v)", n, kb, okb, kg, okg)
		}
		if !okb {
			break
		}
	}
	if built.Len() != grown.Len() || built.Len() != uint64(len(ps.keys)) {
		t.Errorf("Len: built %d, grown %d, want %d", built.Len(), grown.Len(), len(ps.keys))
	}
	mustCheck(t, grown)
}

// TestBuildMatchesPuts builds trees from sorted pairs — none, one, values
// on both sides of maxInlineValue and of the largest value a leaf holds,
// values between the two, enough for three levels — and holds each to a
// twin grown by puts of the same pairs. Leaves are packed full: none had
// room for the cell that opened the next, so there are no more than the
// cells' bytes over a leaf's capacity less the largest cell, plus one. A
// value between maxInlineValue and a leaf's capacity stays in the built
// tree's leaf, where its put-grown twin chains it.
func TestBuildMatchesPuts(t *testing.T) {
	big := func(n int, seed byte) []byte {
		v := make([]byte, n)
		for i := range v {
			v[i] = seed + byte(i%251)
		}
		return v
	}
	cases := map[string]func(maxInline int) *pairs{
		"empty": func(int) *pairs { return &pairs{} },
		"one":   func(int) *pairs { ps := &pairs{}; ps.add("only", []byte("value")); return ps },
		"inline edge": func(maxInline int) *pairs {
			ps := &pairs{}
			ps.add("a-at", big(maxInline, 1))
			ps.add("b-over", big(maxInline+1, 2))
			ps.add("c-chain", big(5*maxInline, 3))
			ps.add("c-leaf-over", big(leafMost(len("c-leaf-over"))+1, 4))
			ps.add("d-empty", nil)
			ps.add("e-small", []byte("x"))
			return ps
		},
		"leaf inline": func(maxInline int) *pairs {
			ps := &pairs{}
			ps.add("a-over", big(maxInline+1, 1))
			ps.add("b-half", big(2*maxInline, 2))
			ps.add("c-most", big(3000, 3))
			for i := 0; i < 20; i++ {
				ps.add(fmt.Sprintf("d-%02d", i), big(maxInline+1+i*100, byte(i)))
			}
			return ps
		},
		"three levels": func(maxInline int) *pairs {
			ps := &pairs{}
			for i := 0; i < 40000; i++ {
				v := []byte(fmt.Sprintf("posting-%d", i*7))
				if i%997 == 0 {
					v = big(maxInline+100, byte(i))
				}
				ps.add(fmt.Sprintf("term%07d", i), v)
			}
			return ps
		},
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 1<<14, 256)
			grown, err := Create(env.pg, env.alloc)
			if err != nil {
				t.Fatal(err)
			}
			ps := gen(grown.maxInlineValue())
			for i, k := range ps.keys {
				if err := grown.Put(k, ps.vals[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := env.pg.Sync(); err != nil { // the twin's pages go home first
				t.Fatal(err)
			}
			built := mustBuild(t, env, ps)
			assertTwins(t, built, grown, ps)
			res := mustCheck(t, built)
			assertPackedFull(t, built)
			capacity := env.pg.BlockSize() - hdrSize
			cells, maxCell := ps.cellBytes(env.pg.BlockSize())
			if bound := (cells+capacity-maxCell-1)/(capacity-maxCell) + 1; res.Leaves > bound {
				t.Errorf("%d leaves for %d cell bytes of at most %d each, want at most %d", res.Leaves, cells, maxCell, bound)
			}
			if name == "leaf inline" {
				grownRes := mustCheck(t, grown)
				if ovf := len(res.AllPages) - res.Pages - 1; ovf != 0 {
					t.Errorf("the built tree has %d overflow pages, want none", ovf)
				}
				if ovf := len(grownRes.AllPages) - grownRes.Pages - 1; ovf < len(ps.keys) {
					t.Errorf("the grown twin has %d overflow pages for %d values over maxInlineValue", ovf, len(ps.keys))
				}
			}
			if name == "three levels" && built.Height() < 3 {
				t.Errorf("height %d, want at least 3", built.Height())
			}
			t.Logf("%d keys: built %d leaves, height %d; grown %d leaves, height %d",
				len(ps.keys), res.Leaves, built.Height(), mustCheck(t, grown).Leaves, grown.Height())
			// Reopened from its header, the tree reads the same.
			again, err := Open(env.pg, env.alloc, built.HeaderPage())
			if err != nil {
				t.Fatal(err)
			}
			assertTwins(t, again, grown, ps)
		})
	}
}

// leafMost is the largest value whose cell, beside a klen-byte key,
// fits an empty leaf of the default block size.
func leafMost(klen int) int {
	n := 0
	for fitsEmptyLeaf(blockdev.DefaultBlockSize, klen, n+1) {
		n++
	}
	return n
}

// TestBuildLeafEdge: the largest value whose cell fits an empty leaf is
// built into a leaf of its own with no overflow page, and one byte more
// takes a chain; both read back.
func TestBuildLeafEdge(t *testing.T) {
	env := newEnv(t, 1024, 64)
	ps := &pairs{}
	ps.add("a", bytes.Repeat([]byte{'a'}, leafMost(1)))
	ps.add("b", bytes.Repeat([]byte{'b'}, leafMost(1)+1))
	tr := mustBuild(t, env, ps)
	res := mustCheck(t, tr)
	if res.Leaves != 2 {
		t.Errorf("%d leaves, want 2: one full leaf, and one for the chained value's cell", res.Leaves)
	}
	if ovf := len(res.AllPages) - res.Pages - 1; ovf != 1 {
		t.Errorf("%d overflow pages, want the one that holds %d bytes", ovf, leafMost(1)+1)
	}
	for i, k := range ps.keys {
		if got, err := tr.Get(k); err != nil || !bytes.Equal(got, ps.vals[i]) {
			t.Errorf("Get(%q): %d bytes, %v; want %d", k, len(got), err, len(ps.vals[i]))
		}
	}
}

// TestBuildRejectsUnsortedKeys: keys must ascend strictly, and a key
// longer than a tree takes is refused as a put refuses it.
func TestBuildRejectsUnsortedKeys(t *testing.T) {
	env := newEnv(t, 1024, 64)
	free := env.alloc.b.FreeBlocks()
	for _, ps := range []*pairs{
		{keys: [][]byte{[]byte("b"), []byte("a")}, vals: [][]byte{nil, nil}},
		{keys: [][]byte{[]byte("a"), []byte("a")}, vals: [][]byte{nil, nil}},
		{keys: [][]byte{make([]byte, env.pg.BlockSize()/8+1)}, vals: [][]byte{nil}},
	} {
		if _, err := Build(env.pg, env.alloc, nil, ps.iter()); err == nil {
			t.Errorf("Build(%q) succeeded", ps.keys)
		}
	}
	if got := env.alloc.b.FreeBlocks(); got != free {
		t.Errorf("refused builds kept %d blocks", free-got)
	}
}

// TestBuildAbortGivesBlocksBack: a build whose input fails part-way
// frees every page it took, and an operation rolled back after its build
// stood drops the tree through the inverse the build staged. Either way
// the allocator's free count returns to its value before.
func TestBuildAbortGivesBlocksBack(t *testing.T) {
	env := newEnv(t, 1<<13, 256)
	env.pg.EnableUndo()
	ps := &pairs{}
	for i := 0; i < 5000; i++ {
		ps.add(fmt.Sprintf("k%06d", i), bytes.Repeat([]byte{byte(i)}, 40+i%2000))
	}
	free := env.alloc.b.FreeBlocks()

	failAt := 4000
	src := ps.iter()
	n := 0
	failing := func() ([]byte, []byte, bool, error) {
		if n++; n == failAt {
			return nil, nil, false, errors.New("input failed")
		}
		return src()
	}
	op := env.pg.NewOp(nil)
	if _, err := Build(env.pg, env.alloc, op, failing); err == nil {
		t.Fatal("Build succeeded over a failing input")
	}
	if got := env.alloc.b.FreeBlocks(); got != free {
		t.Errorf("a failed build kept %d blocks", free-got)
	}
	env.pg.FinishOp(op, true)

	op = env.pg.NewOp(nil)
	tr, err := Build(env.pg, env.alloc, op, ps.iter())
	if err != nil {
		t.Fatal(err)
	}
	if got := env.alloc.b.FreeBlocks(); got >= free {
		t.Fatalf("a standing build took no blocks (%d free, %d before)", got, free)
	}
	op.Rollback(func(body []byte) error {
		u, err := undo.Decode(body)
		if err != nil {
			return err
		}
		if u.Code != undo.OpBtreeDrop || u.Hdr != tr.HeaderPage() {
			return fmt.Errorf("unexpected inverse %d", u.Code)
		}
		dropped, err := Open(env.pg, env.alloc, u.Hdr)
		if err != nil {
			return err
		}
		return dropped.Drop(op)
	})
	for _, fn := range op.Deferred() {
		if err := fn(nil); err != nil {
			t.Fatal(err)
		}
	}
	env.pg.FinishOp(op, true)
	if got := env.alloc.b.FreeBlocks(); got != free {
		t.Errorf("the rolled-back build kept %d blocks", free-got)
	}
}

// TestBuildLogsNoPageRecord: a logged build stages one allocation and one
// sum per page and the inverse of its creation, and no page record.
func TestBuildLogsNoPageRecord(t *testing.T) {
	env := newEnv(t, 1<<13, 256)
	env.pg.EnableUndo()
	ps := &pairs{}
	for i := 0; i < 3000; i++ {
		ps.add(fmt.Sprintf("k%06d", i), bytes.Repeat([]byte{'v'}, 10+i%3000))
	}
	op := env.pg.NewOp(nil)
	tr, err := Build(env.pg, env.alloc, op, ps.iter())
	if err != nil {
		t.Fatal(err)
	}
	pages := len(mustCheck(t, tr).AllPages)
	kinds := map[uint8]int{}
	for _, r := range op.Records() {
		kinds[r.Kind]++
	}
	want := map[uint8]int{redo.KindAlloc: pages, redo.KindBuilt: pages}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("a %d-page build staged records by kind %v, want %v", pages, kinds, want)
	}
	env.pg.FinishOp(op, true)
}
