package index

import (
	"reflect"
	"testing"

	"repro/internal/fulltext"
)

// drain pulls an iterator dry.
func drain(t *testing.T, it Iterator) []OID {
	t.Helper()
	out, err := Drain(it, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSliceIterSeek(t *testing.T) {
	it := NewSliceIter([]OID{2, 4, 6, 8, 10})
	if v, ok, _ := it.Seek(5); !ok || v != 6 {
		t.Fatalf("Seek(5) = %d, %v", v, ok)
	}
	if v, ok, _ := it.Next(); !ok || v != 8 {
		t.Fatalf("Next = %d, %v", v, ok)
	}
	if v, ok, _ := it.Seek(8); !ok || v != 10 {
		t.Fatalf("Seek(8) after consuming 8 = %d, %v (seek is forward-only over the tail)", v, ok)
	}
	if _, ok, _ := it.Seek(11); ok {
		t.Fatal("Seek past end returned ok")
	}
}

func TestIntersectIter(t *testing.T) {
	cases := []struct {
		name  string
		lists [][]OID
		want  []OID
	}{
		{"disjoint", [][]OID{{1, 3, 5}, {2, 4, 6}}, nil},
		{"overlap", [][]OID{{1, 3, 5, 7, 9}, {3, 4, 7, 10}}, []OID{3, 7}},
		{"three", [][]OID{{1, 2, 3, 4, 5}, {2, 3, 4}, {3, 4, 9}}, []OID{3, 4}},
		{"identical", [][]OID{{5, 6}, {5, 6}}, []OID{5, 6}},
		{"empty-side", [][]OID{{1, 2}, nil}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			its := make([]Iterator, len(tc.lists))
			for i, l := range tc.lists {
				its[i] = NewSliceIter(l)
			}
			got := drain(t, Intersect(its...))
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Intersect = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestIntersectSeekSkipsAhead(t *testing.T) {
	big := make([]OID, 1000)
	for i := range big {
		big[i] = OID(i + 1)
	}
	small := []OID{100, 500, 900}
	var st IterStats
	it := Intersect(NewSliceIter(small), Counted(NewSliceIter(big), &st))
	got := drain(t, it)
	if !reflect.DeepEqual(got, small) {
		t.Fatalf("intersection = %v", got)
	}
	// The big side must have been seeked, not scanned: one seek per
	// candidate from the small side, each emitting one OID.
	if st.Seeks != int64(len(small)) || st.Steps != int64(len(small)) {
		t.Errorf("big side did %d seeks / %d steps; want %d seeks, %d steps",
			st.Seeks, st.Steps, len(small), len(small))
	}
}

func TestUnionIter(t *testing.T) {
	cases := []struct {
		name  string
		lists [][]OID
		want  []OID
	}{
		{"interleaved", [][]OID{{1, 4, 7}, {2, 4, 8}}, []OID{1, 2, 4, 7, 8}},
		{"duplicate-heavy", [][]OID{{1, 2, 3}, {1, 2, 3}, {2}}, []OID{1, 2, 3}},
		{"one-empty", [][]OID{nil, {5}}, []OID{5}},
		{"all-empty", [][]OID{nil, nil}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			its := make([]Iterator, len(tc.lists))
			for i, l := range tc.lists {
				its[i] = NewSliceIter(l)
			}
			got := drain(t, Union(its...))
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Union = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestUnionIterSeek(t *testing.T) {
	it := Union(NewSliceIter([]OID{1, 5, 9}), NewSliceIter([]OID{2, 5, 12}))
	if v, ok, _ := it.Seek(4); !ok || v != 5 {
		t.Fatalf("Seek(4) = %d, %v", v, ok)
	}
	rest := drain(t, it)
	if !reflect.DeepEqual(rest, []OID{9, 12}) {
		t.Errorf("after seek = %v", rest)
	}
}

func TestDiffIter(t *testing.T) {
	got := drain(t, Diff(NewSliceIter([]OID{1, 2, 3, 4, 5}), NewSliceIter([]OID{2, 4, 6})))
	if !reflect.DeepEqual(got, []OID{1, 3, 5}) {
		t.Errorf("Diff = %v", got)
	}
	got = drain(t, Diff(NewSliceIter([]OID{1, 2}), NewSliceIter(nil)))
	if !reflect.DeepEqual(got, []OID{1, 2}) {
		t.Errorf("Diff vs empty = %v", got)
	}
	got = drain(t, Diff(NewSliceIter(nil), NewSliceIter([]OID{1})))
	if got != nil {
		t.Errorf("empty Diff = %v", got)
	}
	// Seek composes with the subtraction.
	d := Diff(NewSliceIter([]OID{1, 2, 3, 4, 5}), NewSliceIter([]OID{3}))
	if v, ok, _ := d.Seek(3); !ok || v != 4 {
		t.Errorf("Diff.Seek(3) = %d, %v, want 4", v, ok)
	}
}

func TestDedupedIter(t *testing.T) {
	got := drain(t, Deduped(NewSliceIter([]OID{1, 1, 2, 2, 2, 3})))
	if !reflect.DeepEqual(got, []OID{1, 2, 3}) {
		t.Errorf("Deduped = %v", got)
	}
}

func TestDrainLimit(t *testing.T) {
	got, err := Drain(NewSliceIter([]OID{1, 2, 3, 4, 5}), 2)
	if err != nil || !reflect.DeepEqual(got, []OID{1, 2}) {
		t.Errorf("Drain(limit=2) = %v, %v", got, err)
	}
}

// TestKVIterStreams: the btree-backed iterator agrees with Lookup and
// supports Seek mid-list.
func TestKVIterStreams(t *testing.T) {
	x, _ := newKV(t, TagUDef)
	for i := 1; i <= 50; i++ {
		if err := x.Insert(nil, []byte("v"), OID(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	// A different value must not bleed into the stream.
	if err := x.Insert(nil, []byte("w"), 7); err != nil {
		t.Fatal(err)
	}
	it, err := x.Iter([]byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := x.Lookup([]byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); !reflect.DeepEqual(got, want) {
		t.Errorf("Iter = %v, want %v", got, want)
	}
	it2, _ := x.Iter([]byte("v"))
	if v, ok, _ := it2.Seek(41); !ok || v != 42 {
		t.Errorf("Seek(41) = %d, %v, want 42", v, ok)
	}
	if v, ok, _ := it2.Seek(101); ok {
		t.Errorf("Seek past end = %d, want exhausted", v)
	}
	// Empty posting list.
	it3, _ := x.Iter([]byte("missing"))
	if got := drain(t, it3); got != nil {
		t.Errorf("Iter(missing) = %v", got)
	}
}

func TestShardedIterRoutes(t *testing.T) {
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
	for i := 1; i <= 20; i++ {
		if err := s.Insert(nil, []byte("margo"), OID(i)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Iter([]byte("margo"))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if len(got) != 20 || got[0] != 1 || got[19] != 20 {
		t.Errorf("sharded Iter = %v", got)
	}
}

func TestFulltextIter(t *testing.T) {
	e := newEnv(t)
	ft, err := fulltext.Create(e.pg, e.ba, fulltext.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFulltext(ft)
	if err := f.Insert(nil, []byte("the quick brown fox"), 3); err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(nil, []byte("quick silver"), 9); err != nil {
		t.Fatal(err)
	}
	it, err := f.Iter([]byte("quick"))
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); !reflect.DeepEqual(got, []OID{3, 9}) {
		t.Errorf("fulltext Iter = %v", got)
	}
}

// TestShardedRangeLookupSortedDedup: shards return value-major OID lists,
// so the merged range result must be re-sorted and deduplicated — an OID
// tagged with several in-range values (landing on different shards) must
// appear exactly once, in ascending order.
func TestShardedRangeLookupSortedDedup(t *testing.T) {
	e := newEnv(t)
	var shards []Store
	for i := 0; i < 4; i++ {
		kv, err := NewKVIndex(TagUDef, e.pg, e.ba)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, kv)
	}
	s := NewSharded(TagUDef, shards)
	// OID 9 carries many values, OIDs 1..3 one each; values spread over
	// shards by hash, and within a shard sort value-major (so OID 9
	// precedes lower OIDs under later values).
	for _, v := range []string{"k1", "k2", "k3", "k4", "k5"} {
		if err := s.Insert(nil, []byte(v), 9); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []string{"k2", "k3", "k4"} {
		if err := s.Insert(nil, []byte(v), OID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.RangeLookup([]byte("k1"), []byte("k9"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []OID{1, 2, 3, 9}) {
		t.Errorf("sharded RangeLookup = %v, want [1 2 3 9]", got)
	}
}
