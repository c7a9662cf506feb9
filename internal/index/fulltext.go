package index

import (
	"repro/internal/fulltext"
	"repro/internal/pager"
)

// Fulltext adapts the segmented inverted index to the Store interface for
// FULLTEXT-tagged naming operations. A Lookup value is a search term (the
// paper's FULLTEXT/S1 ... FULLTEXT/Sn vectors); Insert's value is the
// document text to analyze.
type Fulltext struct {
	idx *fulltext.Index
}

// NewFulltext wraps an inverted index.
func NewFulltext(idx *fulltext.Index) *Fulltext { return &Fulltext{idx: idx} }

// Inner exposes the wrapped index (for lazy-indexing control and stats).
func (f *Fulltext) Inner() *fulltext.Index { return f.idx }

// Tag implements Store.
func (f *Fulltext) Tag() string { return TagFulltext }

// Insert analyzes value as document text for oid. Synchronous; use the
// inner index's Enqueue for the paper's lazy path.
func (f *Fulltext) Insert(op *pager.Op, value []byte, oid OID) error {
	return f.idx.AddBytes(op, uint64(oid), value)
}

// Remove drops the document; value is ignored (whole-document removal).
func (f *Fulltext) Remove(op *pager.Op, value []byte, oid OID) error {
	return f.idx.Delete(op, uint64(oid))
}

// Lookup treats value as one search term (or a phrase of terms, all of
// which must match). Search analyzes it, once: a term analyzed twice may
// stem again ("weddings" → "wedding" → "wedd") and name other documents.
func (f *Fulltext) Lookup(value []byte) ([]OID, error) {
	ids, err := f.idx.Search(string(value))
	if err != nil {
		return nil, err
	}
	out := make([]OID, len(ids))
	for i, id := range ids {
		out[i] = OID(id)
	}
	return out, nil
}

// Iter implements Iterable. Postings live in in-memory maps plus
// sorted-by-term segment trees, so a per-term stream in docID order has no
// cheaper form than the merged posting list; Lookup materializes it once
// and the slice iterator then supports Seek by binary search, which is
// what the intersection engine needs.
func (f *Fulltext) Iter(value []byte) (Iterator, error) {
	ids, err := f.Lookup(value)
	if err != nil {
		return nil, err
	}
	return NewSliceIter(ids), nil
}

// Count implements Store using document frequency.
func (f *Fulltext) Count(value []byte) (int, error) {
	terms := fulltext.Tokenize(string(value))
	if len(terms) == 0 {
		return 0, nil
	}
	// Conjunction selectivity is bounded by the rarest term. Tokenize's
	// terms are analyzed already, as DocFreq takes them.
	min := -1
	for _, t := range terms {
		df, err := f.idx.DocFreq(t)
		if err != nil {
			return 0, err
		}
		if min < 0 || df < min {
			min = df
		}
	}
	return min, nil
}
