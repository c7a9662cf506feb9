package index

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/btree"
	"repro/internal/buddy"
	"repro/internal/fulltext"
	"repro/internal/pager"
)

type env struct {
	dev *blockdev.MemDevice
	pg  *pager.Pager
	ba  *buddy.Allocator
}

func newEnv(t *testing.T) *env {
	t.Helper()
	dev := blockdev.NewMem(8192, blockdev.DefaultBlockSize)
	return &env{dev: dev, pg: pager.New(dev, 256, true), ba: buddy.New(1, 8191)}
}

func newKV(t *testing.T, tag string) (*KVIndex, *env) {
	t.Helper()
	e := newEnv(t)
	x, err := NewKVIndex(tag, e.pg, e.ba)
	if err != nil {
		t.Fatal(err)
	}
	return x, e
}

func TestKVInsertLookup(t *testing.T) {
	x, _ := newKV(t, TagUser)
	if err := x.Insert(nil, []byte("margo"), 1); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(nil, []byte("margo"), 7); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(nil, []byte("nick"), 3); err != nil {
		t.Fatal(err)
	}
	got, err := x.Lookup([]byte("margo"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []OID{1, 7}) {
		t.Errorf("Lookup(margo) = %v", got)
	}
	got, _ = x.Lookup([]byte("nobody"))
	if len(got) != 0 {
		t.Errorf("Lookup(nobody) = %v", got)
	}
	n, err := x.Count([]byte("margo"))
	if err != nil || n != 2 {
		t.Errorf("Count = %d, %v", n, err)
	}
}

func TestKVRemoveIdempotent(t *testing.T) {
	x, _ := newKV(t, TagUser)
	if err := x.Insert(nil, []byte("v"), 5); err != nil {
		t.Fatal(err)
	}
	if err := x.Remove(nil, []byte("v"), 5); err != nil {
		t.Fatal(err)
	}
	if err := x.Remove(nil, []byte("v"), 5); err != nil {
		t.Errorf("second remove errored: %v", err)
	}
	got, _ := x.Lookup([]byte("v"))
	if len(got) != 0 {
		t.Errorf("after remove: %v", got)
	}
}

func TestKVValuesWithZeroBytesAndPrefixes(t *testing.T) {
	x, _ := newKV(t, TagUDef)
	vals := [][]byte{
		[]byte("a"), []byte("a\x00"), []byte("a\x00b"), []byte("ab"),
		{0x00}, {0x00, 0x00}, {},
	}
	for i, v := range vals {
		if err := x.Insert(nil, v, OID(i+1)); err != nil {
			t.Fatalf("Insert(%x): %v", v, err)
		}
	}
	for i, v := range vals {
		got, err := x.Lookup(v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []OID{OID(i + 1)}) {
			t.Errorf("Lookup(%x) = %v, want [%d] — encoding is not prefix-free", v, got, i+1)
		}
	}
}

func TestKVRangeLookup(t *testing.T) {
	x, _ := newKV(t, "DATE")
	// Dates as sortable strings.
	dates := []string{"2009-01-05", "2009-02-10", "2009-03-15", "2009-07-04"}
	for i, d := range dates {
		if err := x.Insert(nil, []byte(d), OID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := x.RangeLookup([]byte("2009-02-01"), []byte("2009-04-01"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []OID{2, 3}) {
		t.Errorf("RangeLookup = %v, want [2 3]", got)
	}
	// Open-ended range.
	got, err = x.RangeLookup([]byte("2009-03-01"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []OID{3, 4}) {
		t.Errorf("open RangeLookup = %v, want [3 4]", got)
	}
}

func TestKVPersistence(t *testing.T) {
	e := newEnv(t)
	x, err := NewKVIndex(TagApp, e.pg, e.ba)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(nil, []byte("quicken"), 42); err != nil {
		t.Fatal(err)
	}
	if err := e.pg.Sync(); err != nil {
		t.Fatal(err)
	}
	pg2 := pager.New(e.dev, 64, true)
	y, err := OpenKVIndex(TagApp, pg2, e.ba, x.HeaderPage())
	if err != nil {
		t.Fatal(err)
	}
	got, err := y.Lookup([]byte("quicken"))
	if err != nil || !reflect.DeepEqual(got, []OID{42}) {
		t.Errorf("reopened Lookup = %v, %v", got, err)
	}
}

func TestShardedRoutesAndMerges(t *testing.T) {
	e := newEnv(t)
	var shards []Store
	for i := 0; i < 4; i++ {
		kv, err := NewKVIndex(TagUser, e.pg, e.ba)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, kv)
	}
	s := NewSharded(TagUser, shards)
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	for i := 0; i < 100; i++ {
		if err := s.Insert(nil, []byte(fmt.Sprintf("user%d", i%10)), OID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Lookup([]byte("user3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Errorf("Lookup(user3) = %d results, want 10", len(got))
	}
	// Distribution: at least two shards should hold data.
	used := 0
	for _, sh := range shards {
		if sh.(*KVIndex).Len() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("only %d shards used — hashing broken", used)
	}
	// Range lookup crosses shards.
	all, err := s.RangeLookup([]byte("user0"), []byte("user9\xff"))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 100 {
		t.Errorf("RangeLookup found %d, want 100", len(all))
	}
	// Remove through the sharded wrapper.
	if err := s.Remove(nil, []byte("user3"), got[0]); err != nil {
		t.Fatal(err)
	}
	after, _ := s.Lookup([]byte("user3"))
	if len(after) != 9 {
		t.Errorf("after remove: %d, want 9", len(after))
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	x, _ := newKV(t, TagUser)
	r.Register(x)
	got, err := r.Get(TagUser)
	if err != nil || got != Store(x) {
		t.Errorf("Get = %v, %v", got, err)
	}
	if _, err := r.Get("NOPE"); !errors.Is(err, ErrUnknownTag) {
		t.Errorf("unknown tag = %v", err)
	}
	y, _ := newKV(t, TagApp)
	r.Register(y)
	tags := r.Tags()
	if !reflect.DeepEqual(tags, []string{TagApp, TagUser}) {
		t.Errorf("Tags = %v", tags)
	}
}

func TestSetOps(t *testing.T) {
	a := []OID{1, 3, 5, 7}
	b := []OID{3, 4, 5, 8}
	if got := IntersectOIDs(a, b); !reflect.DeepEqual(got, []OID{3, 5}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := IntersectOIDs(a); !reflect.DeepEqual(got, a) {
		t.Errorf("single Intersect = %v", got)
	}
	if got := IntersectOIDs(); got != nil {
		t.Errorf("empty Intersect = %v", got)
	}
	if got := IntersectOIDs(a, nil); len(got) != 0 {
		t.Errorf("Intersect with empty = %v", got)
	}
	if got := UnionOIDs(a, b); !reflect.DeepEqual(got, []OID{1, 3, 4, 5, 7, 8}) {
		t.Errorf("Union = %v", got)
	}
	if got := DiffOIDs(a, b); !reflect.DeepEqual(got, []OID{1, 7}) {
		t.Errorf("Diff = %v", got)
	}
	if got := DiffOIDs(a, nil); !reflect.DeepEqual(got, a) {
		t.Errorf("Diff with empty = %v", got)
	}
}

func TestFulltextAdapter(t *testing.T) {
	e := newEnv(t)
	fx, err := fulltext.Create(e.pg, e.ba, fulltext.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFulltext(fx)
	if f.Tag() != TagFulltext {
		t.Errorf("Tag = %q", f.Tag())
	}
	if err := f.Insert(nil, []byte("the quick brown fox"), 10); err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(nil, []byte("the lazy brown dog"), 20); err != nil {
		t.Fatal(err)
	}
	got, err := f.Lookup([]byte("brown"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []OID{10, 20}) {
		t.Errorf("Lookup(brown) = %v", got)
	}
	// Multi-word value = conjunction.
	got, err = f.Lookup([]byte("brown fox"))
	if err != nil || !reflect.DeepEqual(got, []OID{10}) {
		t.Errorf("Lookup(brown fox) = %v, %v", got, err)
	}
	n, err := f.Count([]byte("brown"))
	if err != nil || n != 2 {
		t.Errorf("Count = %d, %v", n, err)
	}
	if err := f.Remove(nil, nil, 10); err != nil {
		t.Fatal(err)
	}
	got, _ = f.Lookup([]byte("fox"))
	if len(got) != 0 {
		t.Errorf("after remove: %v", got)
	}
}

func makeBitmap(t *testing.T, w, h int, f func(x, y int) byte) []byte {
	t.Helper()
	px := make([]byte, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			px[y*w+x] = f(x, y)
		}
	}
	bm, err := EncodeBitmap(w, h, px)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

func TestImageSignatureProperties(t *testing.T) {
	grad := makeBitmap(t, 32, 32, func(x, y int) byte { return byte(x * 8) })
	sig1, err := Signature(grad)
	if err != nil {
		t.Fatal(err)
	}
	// Scaling the image must keep the signature (scale invariance).
	grad2 := makeBitmap(t, 64, 64, func(x, y int) byte { return byte(x * 4) })
	sig2, err := Signature(grad2)
	if err != nil {
		t.Fatal(err)
	}
	if sig1 != sig2 {
		t.Errorf("scaled image changed signature: %x vs %x", sig1, sig2)
	}
	// A very different image must differ.
	checker := makeBitmap(t, 32, 32, func(x, y int) byte {
		if (x/4+y/4)%2 == 0 {
			return 255
		}
		return 0
	})
	sig3, _ := Signature(checker)
	if sig3 == sig1 {
		t.Error("distinct images share a signature")
	}
}

func TestImageIndexExactAndNear(t *testing.T) {
	e := newEnv(t)
	x, err := NewImageIndex(e.pg, e.ba)
	if err != nil {
		t.Fatal(err)
	}
	grad := makeBitmap(t, 32, 32, func(px, py int) byte { return byte(px * 8) })
	checker := makeBitmap(t, 32, 32, func(px, py int) byte {
		if (px/4+py/4)%2 == 0 {
			return 255
		}
		return 0
	})
	if err := x.Insert(nil, grad, 1); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(nil, checker, 2); err != nil {
		t.Fatal(err)
	}
	got, err := x.Lookup(grad)
	if err != nil || !reflect.DeepEqual(got, []OID{1}) {
		t.Errorf("exact Lookup = %v, %v", got, err)
	}
	// A slightly noisy gradient should near-match the gradient.
	noisy := makeBitmap(t, 32, 32, func(px, py int) byte {
		v := px * 8
		if px == 3 && py == 3 {
			v += 40
		}
		return byte(v)
	})
	near, err := x.LookupNear(noisy, 8)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, oid := range near {
		if oid == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("LookupNear missed the near-duplicate: %v", near)
	}
	if err := x.Remove(nil, grad, 1); err != nil {
		t.Fatal(err)
	}
	got, _ = x.Lookup(grad)
	if len(got) != 0 {
		t.Errorf("after remove: %v", got)
	}
}

func TestImageBadInput(t *testing.T) {
	if _, err := Signature([]byte{1, 2}); !errors.Is(err, ErrBadValue) {
		t.Errorf("short bitmap = %v", err)
	}
	if _, err := EncodeBitmap(0, 5, nil); !errors.Is(err, ErrBadValue) {
		t.Errorf("zero width = %v", err)
	}
	if _, err := EncodeBitmap(2, 2, []byte{1}); !errors.Is(err, ErrBadValue) {
		t.Errorf("pixel mismatch = %v", err)
	}
}

func TestKVConcurrentInsertLookup(t *testing.T) {
	x, _ := newKV(t, TagUser)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := []byte(fmt.Sprintf("u%d", (w*200+i)%7))
				if err := x.Insert(nil, v, OID(w*1000+i)); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				if _, err := x.Lookup(v); err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if x.Len() != 800 {
		t.Errorf("Len = %d, want 800", x.Len())
	}
}

var _ Ranged = (*KVIndex)(nil)
var _ Ranged = (*Sharded)(nil)
var _ Store = (*Fulltext)(nil)
var _ Store = (*ImageIndex)(nil)
var _ btree.PageAllocator = (*buddy.Allocator)(nil)

func TestKVInsertManyMatchesInsert(t *testing.T) {
	batched, _ := newKV(t, TagUDef)
	serial, _ := newKV(t, TagUDef)
	var puts []Put
	for i := 0; i < 200; i++ {
		v := []byte(fmt.Sprintf("tag:%d", i%17))
		puts = append(puts, Put{Value: v, OID: OID(i + 1)})
		if err := serial.Insert(nil, v, OID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.InsertMany(nil, puts); err != nil {
		t.Fatalf("InsertMany: %v", err)
	}
	if batched.Len() != serial.Len() {
		t.Fatalf("batched len %d != serial len %d", batched.Len(), serial.Len())
	}
	for i := 0; i < 17; i++ {
		v := []byte(fmt.Sprintf("tag:%d", i))
		got, err := batched.Lookup(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.Lookup(v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("value %s: batched %v, serial %v", v, got, want)
		}
	}
	if err := batched.InsertMany(nil, nil); err != nil {
		t.Errorf("empty InsertMany: %v", err)
	}
}

func TestShardedInsertManyRoutesLikeInsert(t *testing.T) {
	e := newEnv(t)
	mk := func() *Sharded {
		var shards []Store
		for i := 0; i < 4; i++ {
			kv, err := NewKVIndex(TagUDef, e.pg, e.ba)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, kv)
		}
		return NewSharded(TagUDef, shards)
	}
	batched, serial := mk(), mk()
	var puts []Put
	for i := 0; i < 120; i++ {
		v := []byte(fmt.Sprintf("v%d", i%11))
		puts = append(puts, Put{Value: v, OID: OID(i + 1)})
		if err := serial.Insert(nil, v, OID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.InsertMany(nil, puts); err != nil {
		t.Fatalf("InsertMany: %v", err)
	}
	for i := 0; i < 11; i++ {
		v := []byte(fmt.Sprintf("v%d", i))
		got, _ := batched.Lookup(v)
		want, _ := serial.Lookup(v)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("value %s: batched %v, serial %v", v, got, want)
		}
	}
}
