package fulltext

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/btree"
	"repro/internal/pager"
	"repro/internal/undo"
)

// Index errors.
var (
	ErrClosed = errors.New("fulltext: index closed")
	// ErrCorrupt reports a stored posting list whose bytes do not decode.
	ErrCorrupt = errors.New("fulltext: corrupt posting list")
)

// Posting pairs a document with a term frequency.
type Posting struct {
	DocID uint64
	TF    uint32
}

// ScoredDoc is a ranked search result.
type ScoredDoc struct {
	DocID uint64
	Score uint64 // sum of term frequencies across query terms
}

// Config tunes the index.
type Config struct {
	// FlushDocs is the in-memory buffer size in documents before an
	// automatic segment flush. Default 512. A flush writes each page of
	// its segment once, packed full (btree.Build), and logs no posting:
	// a larger buffer makes fewer, larger segments and fewer merges, not
	// a longer log.
	FlushDocs int
	// MaxSegments bounds the segments of one level: a flush writes a
	// level-0 segment, and a level holding more than MaxSegments is merged
	// into one segment of the next level. Default 8.
	MaxSegments int
	// Bracket wraps each background (lazy) indexing job, and Close's
	// final flush, in the volume's operation bracket, so their page
	// writes are captured and committed like any foreground operation —
	// and the volume's checkpoint fence quiesces the worker too. It calls
	// fn with the bracket's redo capture and commits or rolls back by
	// fn's result (the shape of osd.Options.Begin); it may refuse to call
	// fn when the volume is read-only. The synchronous API does not use
	// it: those calls already run inside their caller's bracket and
	// receive its capture as a parameter. Nil runs fn unlogged.
	Bracket func(fn func(*pager.Op) error) error
}

func (c *Config) fill() {
	if c.FlushDocs == 0 {
		c.FlushDocs = 512
	}
	if c.MaxSegments == 0 {
		c.MaxSegments = 8
	}
}

// Stats reports index composition and churn.
type Stats struct {
	MemDocs     int
	MemTerms    int
	Segments    int
	Flushes     int64
	Compactions int64 // merges, tiered and explicit
	// MergedPostings counts the postings merges have written: the
	// index's write amplification beyond the flushes.
	MergedPostings int64
	DocsAdded      int64
	DocsDeleted    int64
}

// SegmentInfo describes one segment of the index's layout.
type SegmentInfo struct {
	ID    uint64
	Level int
}

// segment is one immutable on-device inverted file.
type segment struct {
	id uint64
	// level is 0 for a flushed segment and L+1 for a merge of level L.
	level int
	// lo and hi bound the docIDs the segment can hold: a flush's documents,
	// or the union of a merge's inputs' ranges. A delete tombstones only
	// the segments whose range holds the document.
	lo, hi uint64
	tree   *btree.Tree
	// dead holds docIDs tombstoned against this segment.
	dead map[uint64]bool
}

// holds reports whether docID lies in the segment's range.
func (s *segment) holds(docID uint64) bool { return s.lo <= docID && docID <= s.hi }

// Index is a segmented inverted index with tombstoned deletes and optional
// background (lazy) indexing.
type Index struct {
	pg    *pager.Pager
	alloc btree.PageAllocator
	cfg   Config

	mu       sync.RWMutex
	manifest *btree.Tree // persists segment list, doc registry, tombstones
	// mem buffers postings by term, each list in the order documents
	// were added. The lists are held by pointer so that appending to a
	// buffered term is a lookup, which does not allocate its key.
	mem      map[string]*[]Posting
	memDocs  map[uint64]bool
	scratch  []byte // the analyzer's term buffer
	segments []*segment
	nextSeg  uint64
	closed   bool

	// One operation at a time changes the index — tx, from its first
	// change until the op finishes (claim) — so no other operation
	// flushes, compacts or tombstones what tx has not committed. revert
	// holds tx's in-memory inverses, which its rollback runs (Undo).
	txMu   sync.Mutex
	tx     *pager.Op
	revert []func()

	flushes        int64
	compactions    int64
	mergedPostings int64
	docsAdded      int64
	docsDeleted    int64

	// Lazy indexing machinery.
	lazyMu   sync.Mutex
	lazyCh   chan lazyJob
	lazyWG   sync.WaitGroup // one count per queued job
	workerWG sync.WaitGroup
}

type lazyJob struct {
	docID uint64
	text  string
}

// Manifest key prefixes: "S/<seg-id>" → segment header page, level and
// docID range,
// "T/<seg-id>/<doc-id>" → tombstone, "D/<doc-id>" → doc-in-segments flag.
func segKey(id uint64) []byte {
	k := make([]byte, 2+8)
	copy(k, "S/")
	binary.BigEndian.PutUint64(k[2:], id)
	return k
}

func docKey(doc uint64) []byte {
	k := make([]byte, 2+8)
	copy(k, "D/")
	binary.BigEndian.PutUint64(k[2:], doc)
	return k
}

func tombKey(seg, doc uint64) []byte {
	k := make([]byte, 2+8+1+8)
	copy(k, "T/")
	binary.BigEndian.PutUint64(k[2:], seg)
	k[10] = '/'
	binary.BigEndian.PutUint64(k[11:], doc)
	return k
}

// segValueLen is the length of a segment's "S/" value: its tree's header
// page, its level, then the lowest and highest docID it can hold.
const segValueLen = 25

// segValue encodes s's "S/" value.
func segValue(s *segment) []byte {
	v := make([]byte, segValueLen)
	binary.LittleEndian.PutUint64(v, s.tree.HeaderPage())
	v[8] = byte(s.level)
	binary.LittleEndian.PutUint64(v[9:], s.lo)
	binary.LittleEndian.PutUint64(v[17:], s.hi)
	return v
}

// Create makes a new empty index whose manifest btree identifies it.
func Create(pg *pager.Pager, alloc btree.PageAllocator, cfg Config) (*Index, error) {
	cfg.fill()
	man, err := btree.Create(pg, alloc)
	if err != nil {
		return nil, err
	}
	return &Index{
		pg: pg, alloc: alloc, cfg: cfg, manifest: man,
		mem: make(map[string]*[]Posting), memDocs: make(map[uint64]bool),
	}, nil
}

// Open loads an index from its manifest header page.
func Open(pg *pager.Pager, alloc btree.PageAllocator, manifestPno uint64, cfg Config) (*Index, error) {
	cfg.fill()
	man, err := btree.Open(pg, alloc, manifestPno)
	if err != nil {
		return nil, err
	}
	idx := &Index{
		pg: pg, alloc: alloc, cfg: cfg, manifest: man,
		mem: make(map[string]*[]Posting), memDocs: make(map[uint64]bool),
	}
	if err := idx.loadSegments(); err != nil {
		return nil, err
	}
	return idx, nil
}

// loadSegments builds the segment list and its tombstone flags from the
// manifest's "S/" and "T/" keys, keeping the trees of segments already
// listed.
func (x *Index) loadSegments() error {
	have := make(map[uint64]*btree.Tree, len(x.segments))
	for _, s := range x.segments {
		have[s.id] = s.tree
	}
	var segs []*segment
	var err error
	serr := x.manifest.ScanPrefix([]byte("S/"), func(k, v []byte) bool {
		id := binary.BigEndian.Uint64(k[2:])
		if len(v) != segValueLen {
			err = fmt.Errorf("fulltext: segment %d has a %d-byte manifest value, want %d", id, len(v), segValueLen)
			return false
		}
		s := &segment{
			id: id, level: int(v[8]), tree: have[id], dead: map[uint64]bool{},
			lo: binary.LittleEndian.Uint64(v[9:]), hi: binary.LittleEndian.Uint64(v[17:]),
		}
		if s.id >= x.nextSeg {
			x.nextSeg = s.id + 1
		}
		if s.tree == nil {
			s.tree, err = btree.Open(x.pg, x.alloc, binary.LittleEndian.Uint64(v))
		}
		if err == nil {
			err = x.manifest.ScanPrefix(append(append([]byte("T/"), k[2:]...), '/'), func(k, _ []byte) bool {
				s.dead[binary.BigEndian.Uint64(k[11:])] = true
				return true
			})
		}
		segs = append(segs, s)
		return err == nil
	})
	if err == nil {
		err = serr
	}
	if err == nil {
		x.segments = segs
	}
	return err
}

// ManifestPage returns the page number that identifies this index.
func (x *Index) ManifestPage() uint64 { return x.manifest.HeaderPage() }

// Stats returns a snapshot of index state.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return Stats{
		MemDocs:        len(x.memDocs),
		MemTerms:       len(x.mem),
		Segments:       len(x.segments),
		Flushes:        x.flushes,
		Compactions:    x.compactions,
		MergedPostings: x.mergedPostings,
		DocsAdded:      x.docsAdded,
		DocsDeleted:    x.docsDeleted,
	}
}

// Layout returns the segments, oldest first, with their levels.
func (x *Index) Layout() []SegmentInfo {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make([]SegmentInfo, len(x.segments))
	for i, s := range x.segments {
		out[i] = SegmentInfo{ID: s.id, Level: s.level}
	}
	return out
}

// Add analyzes text and indexes it under docID synchronously, logging
// its page mutations into op. Re-adding a docID replaces its previous
// postings (via tombstones on old segments).
func (x *Index) Add(op *pager.Op, docID uint64, text string) error {
	return add(x, op, docID, text)
}

// AddBytes is Add for text held as bytes; it does not copy them.
func (x *Index) AddBytes(op *pager.Op, docID uint64, text []byte) error {
	return add(x, op, docID, text)
}

func add[T ~string | ~[]byte](x *Index, op *pager.Op, docID uint64, text T) error {
	x.claim(op)
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return ErrClosed
	}
	// Replace semantics: hide any earlier postings for this doc.
	if err := x.deleteLocked(op, docID); err != nil {
		return err
	}
	x.scratch = analyze(text, x.scratch, func(term []byte) {
		// The doc's posting, once its first occurrence of term made it,
		// is the last in term's list: the rest of the buffer predates it.
		ps := x.buffered(term)
		if n := len(*ps); n > 0 && (*ps)[n-1].DocID == docID {
			(*ps)[n-1].TF++
		} else {
			*ps = append(*ps, Posting{docID, 1})
		}
	})
	x.memDocs[docID] = true
	if op != nil { // the inverse is built only for a rollback to run
		x.onUndo(op, func() { x.dropFromMem(docID) })
	}
	x.docsAdded++
	if len(x.memDocs) >= x.cfg.FlushDocs {
		if err := x.flushLocked(op); err != nil {
			return err
		}
	}
	return nil
}

// buffered returns term's buffered posting list, making it when term is
// new. A lookup by a []byte converted in the index expression does not
// allocate; only a new term does.
func (x *Index) buffered(term []byte) *[]Posting {
	ps := x.mem[string(term)]
	if ps == nil {
		ps = new([]Posting)
		x.mem[string(term)] = ps
	}
	return ps
}

// Delete removes docID from the index, logging into op.
func (x *Index) Delete(op *pager.Op, docID uint64) error {
	x.claim(op)
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return ErrClosed
	}
	x.docsDeleted++
	return x.deleteLocked(op, docID)
}

func (x *Index) deleteLocked(op *pager.Op, docID uint64) error {
	if gone := x.dropFromMem(docID); gone != nil {
		x.onUndo(op, func() {
			for term, tf := range gone {
				ps := x.buffered([]byte(term))
				*ps = append(*ps, Posting{docID, tf})
			}
			x.memDocs[docID] = true
		})
	}
	if _, err := x.manifest.Get(docKey(docID)); err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			err = nil // never flushed: nothing to tombstone
		}
		return err
	}
	for _, s := range x.segments {
		if s.holds(docID) && !s.dead[docID] {
			s.dead[docID] = true
			x.onUndo(op, func() { delete(s.dead, docID) })
			if err := x.manifest.PutOp(op, tombKey(s.id, docID), nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropFromMem takes docID's postings out of the buffer and returns them,
// term → tf; nil when the doc is not buffered.
func (x *Index) dropFromMem(docID uint64) map[string]uint32 {
	if !x.memDocs[docID] {
		return nil
	}
	gone := map[string]uint32{}
	for term, ps := range x.mem {
		kept := (*ps)[:0]
		for _, p := range *ps {
			if p.DocID != docID {
				kept = append(kept, p)
			} else {
				gone[term] = p.TF
			}
		}
		if len(kept) == 0 {
			delete(x.mem, term)
		} else {
			*ps = kept
		}
	}
	delete(x.memDocs, docID)
	return gone
}

// Flush writes the in-memory buffer to a new immutable segment, logging
// into op.
func (x *Index) Flush(op *pager.Op) error {
	x.claim(op)
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.flushLocked(op)
}

func (x *Index) flushLocked(op *pager.Op) error {
	if len(x.mem) == 0 {
		return nil
	}
	tr, err := x.writeSegment(op, x.mem)
	if err != nil {
		return err
	}
	// The in-memory half of the flush happens here, before the manifest
	// half can fail; a rollback puts it back, and drops the tree by the
	// inverse of its creation.
	docs, segs, mem := x.memDocs, x.segments, x.mem
	x.onUndo(op, func() { x.mem, x.memDocs, x.segments = mem, docs, segs })
	id := x.nextSeg
	x.nextSeg++
	sorted := sortedDocs(docs)
	seg := &segment{id: id, tree: tr, dead: map[uint64]bool{}, lo: math.MaxUint64}
	if len(sorted) > 0 {
		seg.lo, seg.hi = sorted[0], sorted[len(sorted)-1]
	}
	x.segments = append(x.segments, seg)
	x.mem = make(map[string]*[]Posting)
	x.memDocs = make(map[uint64]bool)
	x.flushes++
	if err := x.manifest.PutOp(op, segKey(id), segValue(seg)); err != nil {
		return err
	}
	for _, doc := range sorted {
		if err := x.manifest.PutOp(op, docKey(doc), nil); err != nil {
			return err
		}
	}
	return x.mergeTiersLocked(op)
}

// sortedDocs returns the documents of set in ascending order: the order
// the manifest's keys are written in, so that the same documents split
// and merge its pages the same way every time.
func sortedDocs(set map[uint64]bool) []uint64 {
	docs := make([]uint64, 0, len(set))
	for doc := range set {
		docs = append(docs, doc)
	}
	slices.Sort(docs)
	return docs
}

// writeSegment builds a segment tree for op holding the buffered
// postings, term by term in sorted order. The build (btree.Build) writes
// each page once, packed full, and logs only the pages' allocations and
// sums, never a posting; its inverse drops the tree whole.
func (x *Index) writeSegment(op *pager.Op, postings map[string]*[]Posting) (*btree.Tree, error) {
	terms := make([]string, 0, len(postings))
	for t := range postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	var enc []byte
	return btree.Build(x.pg, x.alloc, op, func() ([]byte, []byte, bool, error) {
		if len(terms) == 0 {
			return nil, nil, false, nil
		}
		term := terms[0]
		terms = terms[1:]
		ps := *postings[term]
		sortPostings(ps)
		enc = appendPostings(enc[:0], ps)
		return []byte(term), enc, true, nil
	})
}

// mergeTiersLocked merges each level that holds more than MaxSegments
// segments into one segment of the next level, lowest level first, until
// no level is over. A posting is rewritten once per level it climbs, and
// a level fills only after MaxSegments+1 merges into it, so N documents
// flushed F at a time are rewritten about log_{MaxSegments+1}(N/F) times
// each.
func (x *Index) mergeTiersLocked(op *pager.Op) error {
	for level := 0; ; level++ {
		var in []*segment
		higher := false
		for _, s := range x.segments {
			switch {
			case s.level == level:
				in = append(in, s)
			case s.level > level:
				higher = true
			}
		}
		if len(in) > x.cfg.MaxSegments {
			if err := x.mergeLocked(op, in, level+1, false); err != nil {
				return err
			}
		} else if !higher {
			return nil
		}
	}
}

// Compact merges all segments into one, dropping tombstoned postings.
// Logs into op.
func (x *Index) Compact(op *pager.Op) error {
	x.claim(op)
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.segments) <= 1 {
		return nil
	}
	level := 0
	for _, s := range x.segments {
		level = max(level, s.level+1)
	}
	return x.mergeLocked(op, x.segments, level, true)
}

// mergeLocked replaces the segments in with one segment at level, holding
// their live postings. Only a merge of every segment (all) prunes the doc
// registry, to the documents that survived it: a document a partial merge
// dropped may be live in a segment it did not take, and without its "D/"
// key a later Delete would not tombstone that segment.
func (x *Index) mergeLocked(op *pager.Op, in []*segment, level int, all bool) error {
	var live map[uint64]bool
	if all {
		live = map[uint64]bool{}
	}
	tr, written, err := x.mergeSegments(op, in, live)
	if err != nil {
		return err
	}
	var pruned [][]byte
	if all {
		if err := x.manifest.ScanPrefix([]byte("D/"), func(k, _ []byte) bool {
			if !live[binary.BigEndian.Uint64(k[2:])] {
				pruned = append(pruned, append([]byte(nil), k...))
			}
			return true
		}); err != nil {
			return err
		}
	}
	// Swap in the merged segment — in memory first, as the flush does —
	// then drop the inputs with their manifest entries and tombstones.
	old := x.segments
	x.onUndo(op, func() { x.segments = old })
	id := x.nextSeg
	x.nextSeg++
	kept := make([]*segment, 0, len(old)-len(in)+1)
	for _, s := range old {
		if !slices.Contains(in, s) {
			kept = append(kept, s)
		}
	}
	seg := &segment{id: id, level: level, tree: tr, dead: map[uint64]bool{}, lo: math.MaxUint64}
	for _, s := range in {
		seg.lo, seg.hi = min(seg.lo, s.lo), max(seg.hi, s.hi)
	}
	x.segments = append(kept, seg)
	x.compactions++
	x.mergedPostings += written
	for _, s := range in {
		if err := x.manifest.DeleteOp(op, segKey(s.id)); err != nil {
			return err
		}
		for _, doc := range sortedDocs(s.dead) {
			if err := x.manifest.DeleteOp(op, tombKey(s.id, doc)); err != nil && !errors.Is(err, btree.ErrNotFound) {
				return err
			}
		}
		if err := s.tree.Drop(op); err != nil {
			return err
		}
	}
	if err := x.manifest.PutOp(op, segKey(id), segValue(seg)); err != nil {
		return err
	}
	for _, k := range pruned {
		if err := x.manifest.DeleteOp(op, k); err != nil {
			return err
		}
	}
	return nil
}

// mergeSegments builds a tree for op holding the live postings of in and
// returns it with the number of postings written. It streams the inputs'
// cursors in term order into the build (btree.Build, as writeSegment
// does), so each term is written once, straight from the pages it was
// read from, and no posting is logged; a term's postings are sorted only
// when the inputs' lists, taken oldest first, are not already ascending.
// Each document written is added to live when live is not nil.
func (x *Index) mergeSegments(op *pager.Op, in []*segment, live map[uint64]bool) (*btree.Tree, int64, error) {
	heads := make([]mergeHead, len(in))
	for i, s := range in {
		heads[i].cur = s.tree.NewCursor(nil, nil)
		if err := heads[i].next(); err != nil {
			return nil, 0, err
		}
	}
	var (
		ps      []Posting
		enc     []byte
		written int64
	)
	tr, err := btree.Build(x.pg, x.alloc, op, func() ([]byte, []byte, bool, error) {
		for {
			var term []byte
			for _, h := range heads {
				if h.ok && (term == nil || bytes.Compare(h.key, term) < 0) {
					term = h.key
				}
			}
			if term == nil {
				return nil, nil, false, nil
			}
			ps = ps[:0]
			for i := range heads {
				h := &heads[i]
				if !h.ok || !bytes.Equal(h.key, term) {
					continue
				}
				var err error
				if ps, err = appendPostingsLive(ps, h.val, in[i].dead); err != nil {
					return nil, nil, false, in[i].errAt(term, err)
				}
				if err = h.next(); err != nil {
					return nil, nil, false, err
				}
			}
			if len(ps) == 0 {
				continue
			}
			sortPostings(ps)
			enc = appendPostings(enc[:0], ps)
			written += int64(len(ps))
			if live != nil {
				for _, p := range ps {
					live[p.DocID] = true
				}
			}
			return term, enc, true, nil
		}
	})
	return tr, written, err
}

// mergeHead is one input of a merge: its cursor and the entry it is on.
type mergeHead struct {
	cur      *btree.Cursor
	key, val []byte
	ok       bool
}

func (h *mergeHead) next() error {
	var err error
	h.key, h.val, h.ok, err = h.cur.Next()
	return err
}

// sortPostings orders ps by docID unless it is already ascending.
func sortPostings(ps []Posting) {
	byDoc := func(a, b Posting) int { return cmp.Compare(a.DocID, b.DocID) }
	if !slices.IsSortedFunc(ps, byDoc) {
		slices.SortFunc(ps, byDoc)
	}
}

// claim makes op the index's one changing operation (see tx), once the
// previous one has finished, and stages the inverse that reverts op's
// in-memory changes. A nil op (unlogged) claims nothing.
func (x *Index) claim(op *pager.Op) {
	if op == nil {
		return
	}
	x.mu.RLock()
	mine := x.tx == op
	x.mu.RUnlock()
	if mine {
		return
	}
	x.txMu.Lock()
	x.mu.Lock()
	x.tx = op
	x.mu.Unlock()
	op.StageUndo(undo.Fulltext())
	op.OnFinish(func() {
		x.mu.Lock()
		x.tx, x.revert = nil, nil
		x.mu.Unlock()
		x.txMu.Unlock()
	})
}

// onUndo records how to revert an in-memory change op just made under
// x.mu.
func (x *Index) onUndo(op *pager.Op, fn func()) {
	if op != nil {
		x.revert = append(x.revert, fn)
	}
}

// Undo executes the inverse claim staged: it reverts the in-memory changes
// of op, which is rolling back. At recovery op is a loser's rollback and
// the index holds what Open loaded — the loser's buffered postings died
// with the crash — so Undo reloads the segment list the rollback has
// restored in the manifest.
func (x *Index) Undo(op *pager.Op) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.tx != op {
		return x.loadSegments()
	}
	for i := len(x.revert) - 1; i >= 0; i-- {
		x.revert[i]()
	}
	x.revert = nil
	return nil
}

// errAt names s and term in err, a failure to read term's postings.
func (s *segment) errAt(term []byte, err error) error {
	return fmt.Errorf("fulltext: segment %d, term %q: %w", s.id, term, err)
}

// postings returns the live postings for term across memory and segments.
func (x *Index) postings(term string) ([]Posting, error) {
	var out []Posting
	for _, s := range x.segments {
		v, err := s.tree.Get([]byte(term))
		if errors.Is(err, btree.ErrNotFound) {
			continue
		}
		if err == nil {
			out, err = appendPostingsLive(out, v, s.dead)
		}
		if err != nil {
			return nil, s.errAt([]byte(term), err)
		}
	}
	if ps := x.mem[term]; ps != nil {
		out = append(out, *ps...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DocID < out[j].DocID })
	return out, nil
}

// DocFreq returns the number of live postings for term, an analyzed term
// as Tokenize returns it — the planner's selectivity estimate.
func (x *Index) DocFreq(term string) (int, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	ps, err := x.postings(term)
	return len(ps), err
}

// Check decodes every posting list of every segment, strictly. It
// returns one error per segment that does not read through, naming the
// segment and the term it stopped at: a list that does not decode wraps
// ErrCorrupt, and a page that cannot be read carries the pager's error.
func (x *Index) Check() []error {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var errs []error
	var ps []Posting
	for _, s := range x.segments {
		cur := s.tree.NewCursor(nil, nil)
		for {
			term, v, ok, err := cur.Next()
			if err == nil && ok {
				ps, err = appendPostingsLive(ps[:0], v, nil)
			}
			if err != nil {
				errs = append(errs, s.errAt(term, err))
			}
			if err != nil || !ok {
				break
			}
		}
	}
	return errs
}

// Search returns the docIDs containing every query term (conjunction),
// ascending. Each argument is analyzed with the document analyzer, once,
// and every term it yields must match. The posting lists are already
// sorted by docID, so the conjunction is a merge, smallest list first; a
// docID a list carries twice counts once.
func (x *Index) Search(terms ...string) ([]uint64, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	lists, err := x.termPostings(terms)
	if err != nil || lists == nil {
		return nil, err
	}
	ids := make([]uint64, 0, len(lists[0]))
	for i, p := range lists[0] {
		if i == 0 || p.DocID != lists[0][i-1].DocID {
			ids = append(ids, p.DocID)
		}
	}
	for _, list := range lists[1:] {
		kept, j := ids[:0], 0
		for _, id := range ids {
			for j < len(list) && list[j].DocID < id {
				j++
			}
			if j == len(list) {
				break
			}
			if list[j].DocID == id {
				kept = append(kept, id)
			}
		}
		ids = kept
	}
	return ids, nil
}

// SearchRanked returns conjunction results ordered by descending summed
// term frequency (ties by ascending docID).
func (x *Index) SearchRanked(terms ...string) ([]ScoredDoc, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	lists, err := x.termPostings(terms)
	if err != nil || lists == nil {
		return nil, err
	}
	acc := map[uint64]uint64{}
	for _, p := range lists[0] {
		acc[p.DocID] = uint64(p.TF)
	}
	for _, list := range lists[1:] {
		next := map[uint64]uint64{}
		for _, p := range list {
			if score, ok := acc[p.DocID]; ok {
				next[p.DocID] = score + uint64(p.TF)
			}
		}
		acc = next
		if len(acc) == 0 {
			return nil, nil
		}
	}
	out := make([]ScoredDoc, 0, len(acc))
	for id, score := range acc {
		out = append(out, ScoredDoc{id, score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].DocID < out[j].DocID
	})
	return out, nil
}

// termPostings analyzes each query argument and returns the live
// posting list of every distinct term it yields, shortest first; nil
// when there are no arguments, one yields no term, or some term matches
// nothing. The caller holds x.mu.
func (x *Index) termPostings(args []string) ([][]Posting, error) {
	if len(args) == 0 {
		return nil, nil
	}
	lists := make([][]Posting, 0, len(args))
	for _, arg := range args {
		terms := Tokenize(arg)
		if len(terms) == 0 {
			return nil, nil
		}
		slices.Sort(terms)
		for _, term := range slices.Compact(terms) {
			ps, err := x.postings(term)
			if err != nil {
				return nil, err
			}
			if len(ps) == 0 {
				return nil, nil
			}
			lists = append(lists, ps)
		}
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	return lists, nil
}

// --- background (lazy) indexing ---

// StartLazy launches the background indexer the paper describes. Enqueue
// becomes non-blocking up to the queue depth; WaitIdle barriers on
// completion.
func (x *Index) StartLazy(queueDepth int) {
	x.lazyMu.Lock()
	defer x.lazyMu.Unlock()
	if x.lazyCh != nil {
		return
	}
	if queueDepth <= 0 {
		queueDepth = 1024
	}
	x.lazyCh = make(chan lazyJob, queueDepth)
	x.workerWG.Add(1)
	go func() {
		defer x.workerWG.Done()
		for job := range x.lazyCh {
			// Indexing failures — a refused bracket (degraded volume)
			// included — are recorded by dropping the doc; the
			// synchronous API is available when callers need errors.
			_ = x.bracket(func(op *pager.Op) error { return x.Add(op, job.docID, job.text) })
			x.lazyWG.Done()
		}
	}()
}

// Enqueue schedules text for background indexing. It blocks only when the
// queue is full. Returns false if the lazy indexer is not running.
func (x *Index) Enqueue(docID uint64, text string) bool {
	x.lazyMu.Lock()
	ch := x.lazyCh
	x.lazyMu.Unlock()
	if ch == nil {
		return false
	}
	x.lazyWG.Add(1)
	ch <- lazyJob{docID, text}
	return true
}

// WaitIdle blocks until every enqueued document has been indexed.
func (x *Index) WaitIdle() { x.lazyWG.Wait() }

// StopLazy drains the queue and stops the background worker.
func (x *Index) StopLazy() {
	x.lazyMu.Lock()
	ch := x.lazyCh
	x.lazyCh = nil
	x.lazyMu.Unlock()
	if ch == nil {
		return
	}
	close(ch)
	x.workerWG.Wait()
}

// bracket runs fn inside cfg.Bracket, or unlogged when there is none.
func (x *Index) bracket(fn func(*pager.Op) error) error {
	if x.cfg.Bracket == nil {
		return fn(nil)
	}
	return x.cfg.Bracket(fn)
}

// Close stops background work and flushes buffered postings.
func (x *Index) Close() error {
	x.StopLazy()
	// The final flush allocates a segment like any other, so it runs in
	// an operation bracket like any other: an unlogged allocation would be
	// missing from the log the next open rebuilds the allocator from.
	ran := false
	err := x.bracket(func(op *pager.Op) error {
		ran = true
		return x.close(op, true)
	})
	if !ran {
		// The volume refuses mutations (degraded, read-only). Buffered
		// postings were never durable; they stay unflushed rather than
		// reach the pages behind the log's back.
		return x.close(nil, false)
	}
	return err
}

// close marks the index closed, flushing buffered postings first when
// flush is set; a failed flush leaves it open.
func (x *Index) close(op *pager.Op, flush bool) error {
	x.claim(op)
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return ErrClosed
	}
	var err error
	if flush {
		err = x.flushLocked(op)
	}
	x.closed = err == nil
	return err
}

// --- postings codec ---

// appendPostings appends the encoding of postings ps, whose docIDs ascend
// strictly and are below 2^63, to dst: a uvarint count, then each posting
// as Lucene's frequency file codes it. The gap from the previous docID
// (from 0 for the first) is shifted left a bit, and the bit says whether
// the term frequency is one: uvarint(gap<<1 | 1) when it is, else
// uvarint(gap<<1) and uvarint(tf). Most postings have tf 1, so most take
// one byte.
func appendPostings(dst []byte, ps []Posting) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ps)))
	var prev uint64
	for _, p := range ps {
		gap := (p.DocID - prev) << 1
		if p.TF == 1 {
			dst = binary.AppendUvarint(dst, gap|1)
		} else {
			dst = binary.AppendUvarint(dst, gap)
			dst = binary.AppendUvarint(dst, uint64(p.TF))
		}
		prev = p.DocID
	}
	return dst
}

// appendPostingsLive decodes appendPostings output b onto dst, skipping
// the documents dead holds. Bytes that are not such an output — a count
// they cannot hold, a posting cut short, a docID that does not ascend, a
// tf over 32 bits, bytes after the last posting — return dst as it was
// passed and an error wrapping ErrCorrupt.
func appendPostingsLive(dst []Posting, b []byte, dead map[uint64]bool) ([]Posting, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return dst, fmt.Errorf("%w: no count", ErrCorrupt)
	}
	// A posting takes at least one byte, which bounds a sound count.
	if b = b[n:]; count > uint64(len(b)) {
		return dst, fmt.Errorf("%w: %d postings in %d bytes", ErrCorrupt, count, len(b))
	}
	base := len(dst)
	dst = slices.Grow(dst, int(count))
	var doc uint64
	for i := uint64(0); i < count; i++ {
		code, n := binary.Uvarint(b)
		if n <= 0 {
			return dst[:base], fmt.Errorf("%w: posting %d of %d cut short", ErrCorrupt, i, count)
		}
		b = b[n:]
		tf := uint64(1)
		if code&1 == 0 {
			if tf, n = binary.Uvarint(b); n <= 0 || tf > math.MaxUint32 {
				return dst[:base], fmt.Errorf("%w: posting %d of %d has no 32-bit tf", ErrCorrupt, i, count)
			}
			b = b[n:]
		}
		gap := code >> 1
		if i > 0 && (gap == 0 || doc+gap < doc) {
			return dst[:base], fmt.Errorf("%w: posting %d of %d does not ascend", ErrCorrupt, i, count)
		}
		doc += gap
		if !dead[doc] {
			dst = append(dst, Posting{doc, uint32(tf)})
		}
	}
	if len(b) != 0 {
		return dst[:base], fmt.Errorf("%w: %d bytes after the last of %d postings", ErrCorrupt, len(b), count)
	}
	return dst, nil
}

// Trees returns every btree owned by the index (manifest plus segments),
// for volume-level checking and allocator reconstruction.
func (x *Index) Trees() []*btree.Tree {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := []*btree.Tree{x.manifest}
	for _, s := range x.segments {
		out = append(out, s.tree)
	}
	return out
}

// String renders index state for debugging.
func (x *Index) String() string {
	s := x.Stats()
	return fmt.Sprintf("fulltext{segments=%d memDocs=%d memTerms=%d}", s.Segments, s.MemDocs, s.MemTerms)
}
