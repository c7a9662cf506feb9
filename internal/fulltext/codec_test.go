package fulltext

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/buddy"
	"repro/internal/pager"
	"repro/internal/workload"
)

// validLists are encodings every decoder test starts from: empty, one
// posting, gaps and frequencies that need several bytes, and docIDs near
// the top of the range a posting holds.
var validLists = [][]Posting{
	nil,
	{{7, 1}},
	{{1, 3}, {5, 1}, {200, 1}, {1000000, 42}, {1000001, 1}},
	{{0, 1}, {1, 2}, {2, 1 << 31}, {1<<62 + 5, math.MaxUint32}},
}

// TestPostingsDecoderIsStrict: every strict prefix of a valid encoding,
// and the encoding with one byte more, is refused with ErrCorrupt, as
// are a count its bytes cannot hold, a zero gap after the first posting,
// a gap that wraps the docID and a frequency over 32 bits. A refused decode hands back the
// slice it was given, unchanged.
func TestPostingsDecoderIsStrict(t *testing.T) {
	base := []Posting{{99, 9}}
	refused := func(what string, b []byte) {
		t.Helper()
		got, err := appendPostingsLive(slices.Clone(base), b, nil)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s % x: %v, want ErrCorrupt", what, b, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("%s % x: dst came back as %v", what, b, got)
		}
	}
	for _, ps := range validLists {
		enc := appendPostings(nil, ps)
		for n := 0; n < len(enc); n++ {
			refused(fmt.Sprintf("%d-byte prefix of", n), enc[:n:n])
		}
		refused("trailing byte after", append(slices.Clone(enc), 0))
		got, err := appendPostingsLive(slices.Clone(base), enc, nil)
		if err != nil || !reflect.DeepEqual(got, append(slices.Clone(base), ps...)) {
			t.Errorf("decode of %v: %v, %v", ps, got, err)
		}
	}
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	refused("count over bytes", uv(3, 3, 3))
	refused("zero gap", uv(2, 5<<1|1, 0<<1|1))
	refused("wrapping gap", uv(2, (1<<63-1)<<1|1, (1<<63-1)<<1|1, 3))
	refused("64-bit tf", uv(1, 5<<1, math.MaxUint32+1))
	refused("overlong uvarint", append(bytes.Repeat([]byte{0xff}, 10), 0x01))
}

// FuzzPostings: postings made from arbitrary bytes round-trip through
// the codec, and arbitrary bytes either decode — to postings that encode
// and decode to themselves — or are refused with ErrCorrupt; nothing
// panics.
func FuzzPostings(f *testing.F) {
	for _, ps := range validLists {
		f.Add(appendPostings(nil, ps))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// b read as postings: a byte of gap and a byte of frequency each.
		var ps []Posting
		var doc uint64
		for i := 0; i+1 < len(b); i += 2 {
			doc += uint64(b[i]) + 1
			ps = append(ps, Posting{doc, uint32(b[i+1]) * uint32(b[i+1])})
		}
		got, err := appendPostingsLive(nil, appendPostings(nil, ps), nil)
		if err != nil || !slices.Equal(got, ps) {
			t.Fatalf("round trip of %v: %v, %v", ps, got, err)
		}
		// b read as an encoding.
		got, err = appendPostingsLive(nil, b, nil)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode % x: %v, not ErrCorrupt", b, err)
			}
			return
		}
		again, err := appendPostingsLive(nil, appendPostings(nil, got), nil)
		if err != nil || !slices.Equal(again, got) {
			t.Fatalf("re-encoding of %v decodes to %v, %v", got, again, err)
		}
	})
}

// corruptSegment replaces segment i's tree with one whose list for term
// is cut short by a byte, and returns the segment's id.
func corruptSegment(t *testing.T, x *Index, e *env, i int, term string) uint64 {
	t.Helper()
	s := x.segments[i]
	var keys, vals [][]byte
	cur := s.tree.NewCursor(nil, nil)
	for {
		k, v, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if string(k) == term {
			v = v[:len(v)-1]
		}
		keys, vals = append(keys, k), append(vals, v)
	}
	tr, err := btree.Build(e.pg, e.ba, nil, func() ([]byte, []byte, bool, error) {
		if len(keys) == 0 {
			return nil, nil, false, nil
		}
		k, v := keys[0], vals[0]
		keys, vals = keys[1:], vals[1:]
		return k, v, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.tree = tr
	return s.id
}

// TestCorruptListIsRefused: a stored posting list that does not decode
// fails Search, SearchRanked, DocFreq and the merge that reads it, each
// with ErrCorrupt and the segment's id; Check reports every segment that
// holds such a list, and a term whose list is sound still reads.
func TestCorruptListIsRefused(t *testing.T) {
	x, e := newIndex(t, Config{FlushDocs: 4, MaxSegments: 100})
	for i := uint64(1); i <= 8; i++ {
		if err := x.Add(nil, i, fmt.Sprintf("common word%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Delete(nil, 2); err != nil {
		t.Fatal(err)
	}
	ids := []uint64{corruptSegment(t, x, e, 0, "common"), corruptSegment(t, x, e, 1, "common")}
	names := func(err error, id uint64) bool {
		return errors.Is(err, ErrCorrupt) && bytes.Contains([]byte(err.Error()), fmt.Appendf(nil, "segment %d,", id))
	}
	for name, call := range map[string]func() error{
		"Search":       func() error { _, err := x.Search("common"); return err },
		"SearchRanked": func() error { _, err := x.SearchRanked("common", "word1"); return err },
		"DocFreq":      func() error { _, err := x.DocFreq("common"); return err },
		"Compact":      func() error { return x.Compact(nil) },
	} {
		if err := call(); !names(err, ids[0]) {
			t.Errorf("%s: %v, want ErrCorrupt naming segment %d", name, err, ids[0])
		}
	}
	if errs := x.Check(); len(errs) != 2 || !names(errs[0], ids[0]) || !names(errs[1], ids[1]) {
		t.Errorf("Check: %v, want ErrCorrupt naming segments %v", errs, ids)
	}
	if ids, err := x.Search("word3"); err != nil || !slices.Equal(ids, []uint64{3}) {
		t.Errorf("Search(word3) = %v, %v", ids, err)
	}
}

// TestDocFreqCountsLivePostings: DocFreq equals the number of live
// documents that hold each term, over segments with and without
// tombstones, buffered documents, re-added documents and several
// segments. (A delete tombstones every segment there is, so the segments
// without tombstones are the ones flushed after the last delete.)
func TestDocFreqCountsLivePostings(t *testing.T) {
	x, _ := newIndex(t, Config{FlushDocs: 5, MaxSegments: 100})
	vocab := []string{"apple", "river", "stone", "cloud", "maple"}
	add := func(doc uint64) {
		t.Helper()
		text := []byte("every")
		for i, w := range vocab {
			if doc%uint64(i+2) == 0 {
				text = fmt.Appendf(text, " %s", w)
			}
		}
		if err := x.Add(nil, doc, string(text)); err != nil {
			t.Fatal(err)
		}
	}
	for doc := uint64(1); doc <= 20; doc++ {
		add(doc)
	}
	for _, doc := range []uint64{4, 6, 13} {
		if err := x.Delete(nil, doc); err != nil {
			t.Fatal(err)
		}
	}
	add(12) // re-added: tombstoned, then flushed again
	for doc := uint64(21); doc <= 33; doc++ {
		add(doc)
	}
	add(33) // re-added while buffered
	clean := 0
	for _, s := range x.segments {
		if len(s.dead) == 0 {
			clean++
		}
	}
	if s := x.Stats(); s.Segments < 4 || clean == 0 || clean == s.Segments || s.MemDocs == 0 {
		t.Fatalf("%d segments, %d of them without tombstones, %d buffered docs", s.Segments, clean, s.MemDocs)
	}
	want := map[string]int{"absent": 0}
	for doc := uint64(1); doc <= 33; doc++ {
		if doc == 4 || doc == 6 || doc == 13 {
			continue
		}
		want["every"]++
		for i, w := range vocab {
			if doc%uint64(i+2) == 0 {
				want[w]++
			}
		}
	}
	for w, n := range want {
		term := Tokenize(w)[0]
		if df, err := x.DocFreq(term); err != nil || df != n {
			t.Errorf("DocFreq(%q) = %d, %v; %d live documents hold it", term, df, err, n)
		}
	}
}

// TestBuiltPagesPerPosting pins the size of built segments: a fixed
// corpus of 2 048 documents of about 2 KB, flushed 256 at a time and
// merged four segments at a time, writes no more built pages per posting
// written than measured with one-byte postings kept in their leaves
// (328 pages for 713 048 postings, 0.00046). A posting of two uvarints,
// with every list over a quarter page in an overflow chain, took 536
// pages (0.00075).
func TestBuiltPagesPerPosting(t *testing.T) {
	dev := newEnv(t).dev
	e := &env{dev: dev, pg: pager.New(dev, 4096, true), ba: buddy.New(1, dev.NumBlocks()-1)}
	x, err := Create(e.pg, e.ba, Config{FlushDocs: 256, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	docs := workload.DocCorpus(1, workload.DocCorpusConfig{Docs: 2048, WordsPer: 400})
	flushed := 0
	for i, d := range docs {
		if err := x.Add(nil, uint64(i+1), d.Text); err != nil {
			t.Fatal(err)
		}
		terms := Tokenize(d.Text)
		slices.Sort(terms)
		flushed += len(slices.Compact(terms))
	}
	if err := x.Flush(nil); err != nil {
		t.Fatal(err)
	}
	st, ps := x.Stats(), e.pg.Stats()
	if st.Compactions < 2 || st.MemDocs != 0 {
		t.Fatalf("%d merges, %d buffered docs", st.Compactions, st.MemDocs)
	}
	if ps.Evictions != 0 {
		t.Fatalf("%d evictions: a written-back manifest page would count as built", ps.Evictions)
	}
	postings := int64(flushed) + st.MergedPostings
	perPosting := float64(ps.Writebacks) / float64(postings)
	t.Logf("%d built pages for %d postings (%d flushed, %d merged): %.5f per posting",
		ps.Writebacks, postings, flushed, st.MergedPostings, perPosting)
	if perPosting > 0.00046 {
		t.Errorf("%.5f built pages per posting, want at most 0.00046", perPosting)
	}
}

// TestDeleteTombstonesOnlyItsSegment: 20 flushed documents spread over 4
// segments, each segment with its docID range in its manifest value; a
// delete writes one tombstone, in the one segment whose range holds the
// document, where tombstoning every segment wrote 4. The range survives
// a reopen and a merge, and the deleted document is gone from both.
func TestDeleteTombstonesOnlyItsSegment(t *testing.T) {
	x, e := newIndex(t, Config{FlushDocs: 5, MaxSegments: 100})
	for doc := uint64(1); doc <= 20; doc++ {
		if err := x.Add(nil, doc, fmt.Sprintf("shared word%d", doc)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(x.Layout()); n != 4 {
		t.Fatalf("%d segments, want 4", n)
	}
	tombs := func(x *Index) int {
		n := 0
		if err := x.manifest.ScanPrefix([]byte("T/"), func(_, _ []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if err := x.Delete(nil, 7); err != nil {
		t.Fatal(err)
	}
	if n := tombs(x); n != 1 {
		t.Fatalf("deleting one document wrote %d tombstones, want 1", n)
	}
	check := func(x *Index) {
		t.Helper()
		got, err := x.Search("shared")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 19 || slices.Contains(got, 7) {
			t.Fatalf("search after the delete: %v", got)
		}
	}
	check(x)
	y, err := Open(e.pg, e.ba, x.ManifestPage(), Config{FlushDocs: 5, MaxSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range y.segments {
		if s.lo != uint64(5*i+1) || s.hi != uint64(5*i+5) {
			t.Fatalf("segment %d reopened with docIDs [%d, %d]", i, s.lo, s.hi)
		}
	}
	if err := y.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if s := y.segments; len(s) != 1 || s[0].lo != 1 || s[0].hi != 20 {
		t.Fatalf("the merge left %d segments, the first [%d, %d]", len(s), s[0].lo, s[0].hi)
	}
	check(y)
}
