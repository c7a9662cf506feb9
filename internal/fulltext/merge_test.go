package fulltext

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/pager"
)

// levelCounts returns how many segments each level holds.
func levelCounts(x *Index) map[int]int {
	n := map[int]int{}
	for _, s := range x.Layout() {
		n[s.Level]++
	}
	return n
}

// TestMergeRewritesEachPostingLogTimes: N documents flushed F at a time
// into levels of at most M segments are rewritten by merges at most
// ⌈log_{M+1}(N/F)⌉ times each — a posting is rewritten once per level it
// climbs — where merging every segment whenever there are more than M
// would rewrite about N²/(2·F·M) postings. No level holds more than M
// segments after any Add, and Stats.MergedPostings moves with each merge
// and only then.
func TestMergeRewritesEachPostingLogTimes(t *testing.T) {
	const n, flushDocs, maxSegs = 2000, 4, 3
	x, _ := newIndex(t, Config{FlushDocs: flushDocs, MaxSegments: maxSegs})
	added := int64(0)
	for doc := uint64(1); doc <= n; doc++ {
		text := fmt.Sprintf("doc%d shared group%d word%d", doc, doc%10, doc%37)
		terms := Tokenize(text)
		slices.Sort(terms)
		added += int64(len(slices.Compact(terms)))
		before := x.Stats()
		if err := x.Add(nil, doc, text); err != nil {
			t.Fatal(err)
		}
		after := x.Stats()
		if merged := after.Compactions > before.Compactions; merged != (after.MergedPostings > before.MergedPostings) {
			t.Fatalf("doc %d: merges %d → %d but MergedPostings %d → %d", doc,
				before.Compactions, after.Compactions, before.MergedPostings, after.MergedPostings)
		}
		for level, segs := range levelCounts(x) {
			if segs > maxSegs {
				t.Fatalf("after doc %d level %d holds %d segments, want at most %d", doc, level, segs, maxSegs)
			}
		}
	}
	rewrites := int64(0)
	for flushes := 1; flushes < n/flushDocs; flushes *= maxSegs + 1 {
		rewrites++
	}
	st := x.Stats()
	if st.Compactions == 0 || st.MergedPostings == 0 {
		t.Fatalf("%d merges wrote %d postings; want some of each", st.Compactions, st.MergedPostings)
	}
	if st.MergedPostings > added*rewrites {
		t.Errorf("merges wrote %d postings for %d added: more than %d rewrites each", st.MergedPostings, added, rewrites)
	}
	ids, err := x.Search("shared")
	if err != nil || len(ids) != n {
		t.Fatalf("shared finds %d documents, %v; want %d", len(ids), err, n)
	}
}

// TestReopenAfterPartialMergeDeleteHides: only a merge of every segment
// may prune the doc registry. Document 7 is added, deleted and re-added,
// so it is dead in its first segment and live in a newer one; the merges
// that follow include a partial one whose segments do not hold 7 live.
// Pruning 7's "D/" key there would let Delete(7) skip the segment that
// holds it, and Search would still find it.
func TestReopenAfterPartialMergeDeleteHides(t *testing.T) {
	e := newEnv(t)
	cfg := Config{FlushDocs: 1, MaxSegments: 2}
	x, err := Create(e.pg, pageAlloc{e.ba}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Add(nil, 7, "seven common"); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete(nil, 7); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(nil, 7, "seven again common"); err != nil {
		t.Fatal(err)
	}
	home := x.Layout()[len(x.Layout())-1].ID // the segment holding 7 live
	partial := false
	for doc := uint64(100); doc < 110 && !partial; doc++ {
		if err := x.Add(nil, doc, fmt.Sprintf("filler%d common", doc)); err != nil {
			t.Fatal(err)
		}
		// A merge that took home replaced it; 7 lives in its output.
		layout := x.Layout()
		if !slices.ContainsFunc(layout, func(s SegmentInfo) bool { return s.ID == home }) {
			home = layout[len(layout)-1].ID
			continue
		}
		partial = x.Stats().Compactions > 1
	}
	if !partial {
		t.Fatalf("no partial merge left 7's segment alone: %v", x.Layout())
	}
	if err := x.Delete(nil, 7); err != nil {
		t.Fatal(err)
	}
	check := func(label string, x *Index) {
		for _, term := range []string{"seven", "common"} {
			ids, err := x.Search(term)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(ids, 7) {
				t.Errorf("%s: %q finds deleted document 7: %v", label, term, ids)
			}
		}
	}
	check("live", x)
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.pg.Sync(); err != nil {
		t.Fatal(err)
	}
	y, err := Open(pager.New(e.dev, 256, true), pageAlloc{e.ba}, x.ManifestPage(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("after reopen", y)
}

// TestManifestWritesAreDeterministic: two identical index builds leave
// identical device images. A flush puts its documents' D/ keys, and a
// merge deletes its inputs' tombstone keys, in key order; in map order
// the manifest btree would split, and merge its pages, at different keys
// from one build to the next.
func TestManifestWritesAreDeterministic(t *testing.T) {
	build := func() []byte {
		x, e := newIndex(t, Config{FlushDocs: 4096, MaxSegments: 100})
		for i := uint64(1); i <= 1500; i++ {
			if err := x.Add(nil, i, fmt.Sprintf("doc%d shared", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Flush(nil); err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 1500; i += 2 {
			if err := x.Delete(nil, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Add(nil, 2000, "late shared"); err != nil {
			t.Fatal(err)
		}
		if err := x.Flush(nil); err != nil {
			t.Fatal(err)
		}
		if err := x.Compact(nil); err != nil {
			t.Fatal(err)
		}
		if err := e.pg.Sync(); err != nil {
			t.Fatal(err)
		}
		return e.dev.Snapshot()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("two identical builds left different device images")
	}
}
