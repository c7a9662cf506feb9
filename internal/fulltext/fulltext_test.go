package fulltext

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/buddy"
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

func newIndex(t *testing.T, cfg Config) (*Index, *env) {
	t.Helper()
	e := newEnv(t)
	x, err := Create(e.pg, e.ba, cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return x, e
}

func TestTokenizeBasics(t *testing.T) {
	got := Tokenize("The quick brown Fox jumps over the lazy dog!")
	want := []string{"quick", "brown", "fox", "jump", "over", "lazy", "dog"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeNumbersAndPunctuation(t *testing.T) {
	got := Tokenize("file-system v2.0, b+trees & 100 objects")
	want := []string{"file", "system", "v2", "0", "b", "tree", "100", "object"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndStopOnly(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(empty) = %v", got)
	}
	if got := Tokenize("the and of"); len(got) != 0 {
		t.Errorf("Tokenize(stopwords) = %v", got)
	}
}

func TestStemConsistency(t *testing.T) {
	// Same stem for singular/plural and -ing forms (light stemmer).
	pairs := [][2]string{
		{"files", "file"},
		{"libraries", "library"},
		{"indexing", "index"},
		{"searched", "search"},
	}
	for _, p := range pairs {
		a := Tokenize(p[0])
		b := Tokenize(p[1])
		if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
			t.Errorf("stems differ: %q -> %v, %q -> %v", p[0], a, p[1], b)
		}
	}
}

func TestAddSearchSingleTerm(t *testing.T) {
	x, _ := newIndex(t, Config{})
	if err := x.Add(nil, 1, "hierarchical file systems are dead"); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(nil, 2, "object storage devices"); err != nil {
		t.Fatal(err)
	}
	ids, err := x.Search("hierarchical")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint64{1}) {
		t.Errorf("Search = %v, want [1]", ids)
	}
}

func TestConjunction(t *testing.T) {
	x, _ := newIndex(t, Config{})
	docs := map[uint64]string{
		1: "margo likes btrees and file systems",
		2: "nick likes btrees and lucene",
		3: "margo ported lucene to the raw device",
	}
	for id, text := range docs {
		if err := x.Add(nil, id, text); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := x.Search("margo", "lucene")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint64{3}) {
		t.Errorf("conjunction = %v, want [3]", ids)
	}
	ids, err = x.Search("btrees")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint64{1, 2}) {
		t.Errorf("btrees = %v, want [1 2]", ids)
	}
	// A term nobody has.
	ids, err = x.Search("margo", "nick")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("impossible conjunction = %v", ids)
	}
}

func TestSearchEmptyTerms(t *testing.T) {
	x, _ := newIndex(t, Config{})
	if err := x.Add(nil, 1, "content"); err != nil {
		t.Fatal(err)
	}
	ids, err := x.Search()
	if err != nil || len(ids) != 0 {
		t.Errorf("Search() = %v, %v", ids, err)
	}
	ids, err = x.Search("...")
	if err != nil || len(ids) != 0 {
		t.Errorf("Search(punct) = %v, %v", ids, err)
	}
}

func TestQueryAnalyzedLikeDocuments(t *testing.T) {
	x, _ := newIndex(t, Config{})
	if err := x.Add(nil, 1, "indexing searches"); err != nil {
		t.Fatal(err)
	}
	// Query uses a different surface form of the same stem.
	ids, err := x.Search("Indexed")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint64{1}) {
		t.Errorf("stemmed query = %v, want [1]", ids)
	}
}

func TestRankingByTermFrequency(t *testing.T) {
	x, _ := newIndex(t, Config{})
	if err := x.Add(nil, 1, "disk disk disk seek"); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(nil, 2, "disk seek seek"); err != nil {
		t.Fatal(err)
	}
	scored, err := x.SearchRanked("disk")
	if err != nil {
		t.Fatal(err)
	}
	if len(scored) != 2 || scored[0].DocID != 1 || scored[0].Score != 3 {
		t.Errorf("ranked = %+v, want doc 1 first with score 3", scored)
	}
}

// TestArgumentMatchesEveryTerm: a query argument of several words
// matches the documents that hold every term it yields, and a term it
// yields twice counts once toward a ranked score; two arguments each
// count.
func TestArgumentMatchesEveryTerm(t *testing.T) {
	x, _ := newIndex(t, Config{})
	for doc, text := range map[uint64]string{1: "disk disk seek", 2: "disk", 3: "seek"} {
		if err := x.Add(nil, doc, text); err != nil {
			t.Fatal(err)
		}
	}
	if ids, err := x.Search("disk seek"); err != nil || !reflect.DeepEqual(ids, []uint64{1}) {
		t.Errorf(`Search("disk seek") = %v, %v; want [1]`, ids, err)
	}
	for _, c := range []struct {
		args  []string
		score uint64
	}{
		{[]string{"disk disks"}, 2},
		{[]string{"disk", "disks"}, 4},
	} {
		scored, err := x.SearchRanked(c.args...)
		if err != nil || len(scored) != 2 || scored[0] != (ScoredDoc{1, c.score}) {
			t.Errorf("SearchRanked(%q) = %+v, %v; want doc 1 first with score %d", c.args, scored, err, c.score)
		}
	}
}

func TestFlushAndSearchAcrossSegments(t *testing.T) {
	x, _ := newIndex(t, Config{FlushDocs: 4})
	for i := uint64(1); i <= 10; i++ {
		if err := x.Add(nil, i, fmt.Sprintf("common unique%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s := x.Stats()
	if s.Flushes == 0 {
		t.Fatal("no automatic flushes")
	}
	if s.Segments == 0 {
		t.Fatal("no segments")
	}
	ids, err := x.Search("common")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Errorf("found %d docs, want 10 (across segments + memory)", len(ids))
	}
	ids, err = x.Search("unique7")
	if err != nil || len(ids) != 1 || ids[0] != 7 {
		t.Errorf("unique7 = %v, %v", ids, err)
	}
}

func TestDeleteHidesDoc(t *testing.T) {
	x, _ := newIndex(t, Config{FlushDocs: 2})
	for i := uint64(1); i <= 5; i++ {
		if err := x.Add(nil, i, "shared words here"); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Delete(nil, 3); err != nil {
		t.Fatal(err)
	}
	ids, err := x.Search("shared")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == 3 {
			t.Fatal("deleted doc still searchable")
		}
	}
	if len(ids) != 4 {
		t.Errorf("found %d docs, want 4", len(ids))
	}
}

func TestReAddAfterDelete(t *testing.T) {
	x, _ := newIndex(t, Config{FlushDocs: 2})
	if err := x.Add(nil, 7, "original text alpha"); err != nil {
		t.Fatal(err)
	}
	if err := x.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete(nil, 7); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(nil, 7, "replacement text beta"); err != nil {
		t.Fatal(err)
	}
	ids, err := x.Search("beta")
	if err != nil || len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("new content = %v, %v", ids, err)
	}
	ids, err = x.Search("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("old content still visible: %v", ids)
	}
}

func TestReplaceSemanticsOnReAdd(t *testing.T) {
	x, _ := newIndex(t, Config{})
	if err := x.Add(nil, 1, "first version gamma"); err != nil {
		t.Fatal(err)
	}
	if err := x.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(nil, 1, "second version delta"); err != nil {
		t.Fatal(err)
	}
	ids, _ := x.Search("gamma")
	if len(ids) != 0 {
		t.Errorf("stale content visible: %v", ids)
	}
	ids, _ = x.Search("delta")
	if len(ids) != 1 {
		t.Errorf("new content missing: %v", ids)
	}
}

func TestCompaction(t *testing.T) {
	x, e := newIndex(t, Config{FlushDocs: 2, MaxSegments: 100})
	for i := uint64(1); i <= 20; i++ {
		if err := x.Add(nil, i, fmt.Sprintf("word%d shared", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete(nil, 5); err != nil {
		t.Fatal(err)
	}
	segsBefore := x.Stats().Segments
	if segsBefore < 2 {
		t.Fatalf("need multiple segments, have %d", segsBefore)
	}
	freeBefore := e.ba.FreeBlocks()
	if err := x.Compact(nil); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := x.Stats().Segments; got != 1 {
		t.Errorf("segments after compact = %d, want 1", got)
	}
	if e.ba.FreeBlocks() <= freeBefore-2 {
		t.Errorf("compaction did not release segment pages: %d -> %d", freeBefore, e.ba.FreeBlocks())
	}
	ids, err := x.Search("shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 19 {
		t.Errorf("after compact found %d docs, want 19", len(ids))
	}
	for _, id := range ids {
		if id == 5 {
			t.Error("tombstoned doc resurrected by compaction")
		}
	}
}

func TestAutoCompaction(t *testing.T) {
	x, _ := newIndex(t, Config{FlushDocs: 1, MaxSegments: 3})
	for i := uint64(1); i <= 10; i++ {
		if err := x.Add(nil, i, fmt.Sprintf("doc%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := x.Stats().Segments; got > 4 {
		t.Errorf("segments = %d, auto-compaction not bounding", got)
	}
	if x.Stats().Compactions == 0 {
		t.Error("no compactions triggered")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	e := newEnv(t)
	x, err := Create(e.pg, e.ba, Config{FlushDocs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 9; i++ {
		if err := x.Add(nil, i, fmt.Sprintf("persistent term%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Delete(nil, 4); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil { // flushes the tail
		t.Fatal(err)
	}
	if err := e.pg.Sync(); err != nil {
		t.Fatal(err)
	}

	pg2 := pager.New(e.dev, 256, true)
	y, err := Open(pg2, e.ba, x.ManifestPage(), Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ids, err := y.Search("persistent")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 8 {
		t.Errorf("reopened search found %d, want 8", len(ids))
	}
	for _, id := range ids {
		if id == 4 {
			t.Error("tombstone lost across reopen")
		}
	}
	ids, err = y.Search("term6")
	if err != nil || len(ids) != 1 || ids[0] != 6 {
		t.Errorf("term6 = %v, %v", ids, err)
	}
}

func TestDocFreq(t *testing.T) {
	x, _ := newIndex(t, Config{FlushDocs: 2})
	for i := uint64(1); i <= 6; i++ {
		if err := x.Add(nil, i, "popular"); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Add(nil, 7, "rare popular"); err != nil {
		t.Fatal(err)
	}
	pop, err := x.DocFreq("popular")
	if err != nil {
		t.Fatal(err)
	}
	rare, err := x.DocFreq("rare")
	if err != nil {
		t.Fatal(err)
	}
	if pop != 7 || rare != 1 {
		t.Errorf("DocFreq popular=%d rare=%d, want 7/1", pop, rare)
	}
}

func TestLazyIndexing(t *testing.T) {
	x, _ := newIndex(t, Config{})
	x.StartLazy(16)
	defer x.StopLazy()
	for i := uint64(1); i <= 50; i++ {
		if !x.Enqueue(i, fmt.Sprintf("lazy doc number%d", i)) {
			t.Fatal("Enqueue refused")
		}
	}
	x.WaitIdle()
	ids, err := x.Search("lazy")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 50 {
		t.Errorf("lazy indexing produced %d docs, want 50", len(ids))
	}
}

func TestEnqueueWithoutStart(t *testing.T) {
	x, _ := newIndex(t, Config{})
	if x.Enqueue(1, "text") {
		t.Error("Enqueue succeeded without StartLazy")
	}
}

func TestCloseRejectsFurtherWork(t *testing.T) {
	x, _ := newIndex(t, Config{})
	if err := x.Add(nil, 1, "a doc"); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(nil, 2, "late"); !errors.Is(err, ErrClosed) {
		t.Errorf("Add after close = %v, want ErrClosed", err)
	}
	if err := x.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close = %v, want ErrClosed", err)
	}
}

// TestPostingsCodecRoundtrip: postings round-trip through the codec; an
// empty list is a count of zero, and no bytes at all are refused (a
// stored list always opens with its count). A posting with frequency one
// and a gap under 64 takes one byte, and any other frequency one more.
func TestPostingsCodecRoundtrip(t *testing.T) {
	ps := []Posting{{1, 3}, {5, 1}, {1000000, 42}, {1000001, 1}}
	got, err := appendPostingsLive(nil, appendPostings(nil, ps), nil)
	if err != nil || !reflect.DeepEqual(got, ps) {
		t.Errorf("codec roundtrip = %v, %v; want %v", got, err, ps)
	}
	if got, err := appendPostingsLive(nil, nil, nil); got != nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("decode(nil) = %v, %v; want ErrCorrupt", got, err)
	}
	if got, err := appendPostingsLive(nil, appendPostings(nil, nil), nil); err != nil || len(got) != 0 {
		t.Errorf("decode(encode(nil)) = %v, %v", got, err)
	}
	for _, c := range []struct {
		ps   []Posting
		size int
	}{
		{[]Posting{{1, 1}, {2, 1}, {65, 1}}, 1 + 3},
		{[]Posting{{1, 1}, {66, 1}}, 1 + 1 + 2},
		{[]Posting{{1, 2}, {2, 1}, {3, 127}, {4, 128}}, 1 + 2 + 1 + 2 + 3},
	} {
		if enc := appendPostings(nil, c.ps); len(enc) != c.size {
			t.Errorf("%v encodes in %d bytes, want %d", c.ps, len(enc), c.size)
		}
	}
}

// TestLargePostingsListOverflows: a posting list larger than a leaf
// takes an overflow chain in its segment, and reads back whole.
func TestLargePostingsListOverflows(t *testing.T) {
	x, _ := newIndex(t, Config{FlushDocs: 100000})
	for i := uint64(1); i <= 10000; i++ {
		if err := x.Add(nil, i, "ubiquitous"); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Flush(nil); err != nil {
		t.Fatal(err)
	}
	res, err := x.Trees()[1].Check()
	if err != nil {
		t.Fatal(err)
	}
	if ovf := len(res.AllPages) - res.Pages - 1; ovf == 0 {
		t.Errorf("a %d-page segment has no overflow page", len(res.AllPages))
	}
	ids, err := x.Search("ubiquitous")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10000 {
		t.Errorf("found %d, want 10000", len(ids))
	}
}

// TestSearchMergeMatchesRanked: the merged conjunction Search returns
// exactly SearchRanked's documents, ascending, and the documents a model
// of the live corpus says it should — over several flushed segments,
// buffered documents, tombstoned documents and a document indexed twice.
func TestSearchMergeMatchesRanked(t *testing.T) {
	x, _ := newIndex(t, Config{FlushDocs: 6, MaxSegments: 100})
	vocab := []string{"apple", "river", "stone", "cloud", "maple", "tiger", "lemon", "piano"}
	rng := rand.New(rand.NewPCG(3, 4))
	model := map[uint64]map[string]bool{}
	add := func(doc uint64) {
		words := map[string]bool{}
		var text []string
		for _, w := range vocab {
			if rng.IntN(2) == 0 {
				words[Tokenize(w)[0]] = true
				text = append(text, w)
			}
		}
		if err := x.Add(nil, doc, strings.Join(text, " ")); err != nil {
			t.Fatal(err)
		}
		model[doc] = words
	}
	for doc := uint64(1); doc <= 40; doc++ {
		add(doc)
	}
	add(7)  // indexed twice: its flushed postings are tombstoned
	add(40) // indexed twice while still buffered
	for _, doc := range []uint64{3, 12, 13, 38} {
		if err := x.Delete(nil, doc); err != nil {
			t.Fatal(err)
		}
		delete(model, doc)
	}
	if s := x.Stats(); s.Segments < 3 || s.MemDocs == 0 {
		t.Fatalf("corpus has %d segments and %d buffered docs; want several and some", s.Segments, s.MemDocs)
	}
	// A list that carries a docID twice counts it once, as the ranked
	// score map does; the public API never stores one, so plant it.
	stone := Tokenize("stone")[0]
	x.mu.Lock()
	ps := x.mem[stone]
	if ps == nil || len(*ps) == 0 {
		t.Fatal("no buffered posting to duplicate")
	}
	*ps = append(*ps, (*ps)[0])
	x.mu.Unlock()

	queries := [][]string{{"stone"}, {"stone", "river"}, {"apple", "cloud", "tiger"}, {"piano", "stone", "lemon", "maple"}, {"stone", "absent"}}
	for i := 0; i < 30; i++ {
		q := []string{vocab[rng.IntN(len(vocab))], vocab[rng.IntN(len(vocab))]}
		if rng.IntN(2) == 0 {
			q = append(q, vocab[rng.IntN(len(vocab))])
		}
		queries = append(queries, q)
	}
	for _, q := range queries {
		got, err := x.Search(q...)
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := x.SearchRanked(q...)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for _, s := range ranked {
			want = append(want, s.DocID)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var modelled []uint64
		for doc, words := range model {
			all := true
			for _, w := range q {
				all = all && words[Tokenize(w)[0]]
			}
			if all {
				modelled = append(modelled, doc)
			}
		}
		sort.Slice(modelled, func(i, j int) bool { return modelled[i] < modelled[j] })
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("Search%v = %v; SearchRanked's documents %v", q, got, want)
		}
		if len(got) != len(modelled) || (len(got) > 0 && !reflect.DeepEqual(got, modelled)) {
			t.Errorf("Search%v = %v; the live corpus has %v", q, got, modelled)
		}
	}
}
