package fulltext

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/btree"
	"repro/internal/pager"
)

// Index errors.
var (
	ErrClosed = errors.New("fulltext: index closed")
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
	// automatic segment flush. Default 512.
	FlushDocs int
	// MaxSegments triggers automatic compaction when exceeded. Default 8.
	MaxSegments int
	// Bracket, when non-nil, wraps each background (lazy) indexing job in
	// the volume's transactional operation bracket, so the worker's page
	// writes are captured and committed like any foreground operation —
	// and the volume's checkpoint fence quiesces the worker too. It
	// returns the bracket's redo capture and its commit half. The
	// synchronous API does not use it: those calls already run inside
	// their caller's bracket and receive its capture as a parameter.
	Bracket func() (*pager.Op, func(error) error, error)
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
	Compactions int64
	DocsAdded   int64
	DocsDeleted int64
}

// segment is one immutable on-device inverted file.
type segment struct {
	id   uint64
	tree *btree.Tree
	// dead holds docIDs tombstoned against this segment.
	dead map[uint64]bool
}

// Index is a segmented inverted index with tombstoned deletes and optional
// background (lazy) indexing.
type Index struct {
	pg    *pager.Pager
	alloc btree.PageAllocator
	cfg   Config

	mu       sync.RWMutex
	manifest *btree.Tree // persists segment list, doc registry, tombstones
	mem      map[string][]Posting
	memDocs  map[uint64]bool
	segDocs  map[uint64]bool // docs present in at least one segment
	segments []*segment
	nextSeg  uint64
	closed   bool

	flushes     int64
	compactions int64
	docsAdded   int64
	docsDeleted int64

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

// Manifest key prefixes: "S/<seg-id>" → segment header page,
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

// Create makes a new empty index whose manifest btree identifies it.
func Create(pg *pager.Pager, alloc btree.PageAllocator, cfg Config) (*Index, error) {
	cfg.fill()
	man, err := btree.Create(pg, alloc)
	if err != nil {
		return nil, err
	}
	return &Index{
		pg: pg, alloc: alloc, cfg: cfg, manifest: man,
		mem: make(map[string][]Posting), memDocs: make(map[uint64]bool),
		segDocs: make(map[uint64]bool),
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
		mem: make(map[string][]Posting), memDocs: make(map[uint64]bool),
		segDocs: make(map[uint64]bool),
	}
	// Load the doc registry.
	if err := man.ScanPrefix([]byte("D/"), func(k, v []byte) bool {
		idx.segDocs[binary.BigEndian.Uint64(k[2:])] = true
		return true
	}); err != nil {
		return nil, err
	}
	// Load segments.
	err = man.ScanPrefix([]byte("S/"), func(k, v []byte) bool {
		id := binary.BigEndian.Uint64(k[2:])
		hdr := binary.LittleEndian.Uint64(v)
		tr, terr := btree.Open(pg, alloc, hdr)
		if terr != nil {
			err = terr
			return false
		}
		idx.segments = append(idx.segments, &segment{id: id, tree: tr, dead: map[uint64]bool{}})
		if id >= idx.nextSeg {
			idx.nextSeg = id + 1
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	// Load tombstones.
	segByID := map[uint64]*segment{}
	for _, s := range idx.segments {
		segByID[s.id] = s
	}
	if err := man.ScanPrefix([]byte("T/"), func(k, v []byte) bool {
		seg := binary.BigEndian.Uint64(k[2:])
		doc := binary.BigEndian.Uint64(k[11:])
		if s, ok := segByID[seg]; ok {
			s.dead[doc] = true
		}
		return true
	}); err != nil {
		return nil, err
	}
	return idx, nil
}

// ManifestPage returns the page number that identifies this index.
func (x *Index) ManifestPage() uint64 { return x.manifest.HeaderPage() }

// Stats returns a snapshot of index state.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return Stats{
		MemDocs:     len(x.memDocs),
		MemTerms:    len(x.mem),
		Segments:    len(x.segments),
		Flushes:     x.flushes,
		Compactions: x.compactions,
		DocsAdded:   x.docsAdded,
		DocsDeleted: x.docsDeleted,
	}
}

// Add analyzes text and indexes it under docID synchronously, logging
// its page mutations into op. Re-adding a docID replaces its previous
// postings (via tombstones on old segments).
func (x *Index) Add(op *pager.Op, docID uint64, text string) error {
	terms := Tokenize(text)
	tf := make(map[string]uint32, len(terms))
	for _, term := range terms {
		tf[term]++
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return ErrClosed
	}
	// Replace semantics: hide any earlier postings for this doc.
	if err := x.deleteLocked(op, docID); err != nil {
		return err
	}
	for term, f := range tf {
		x.mem[term] = append(x.mem[term], Posting{docID, f})
	}
	x.memDocs[docID] = true
	x.docsAdded++
	if len(x.memDocs) >= x.cfg.FlushDocs {
		if err := x.flushLocked(op); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes docID from the index, logging into op.
func (x *Index) Delete(op *pager.Op, docID uint64) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return ErrClosed
	}
	x.docsDeleted++
	return x.deleteLocked(op, docID)
}

func (x *Index) deleteLocked(op *pager.Op, docID uint64) error {
	if x.memDocs[docID] {
		for term, ps := range x.mem {
			kept := ps[:0]
			for _, p := range ps {
				if p.DocID != docID {
					kept = append(kept, p)
				}
			}
			if len(kept) == 0 {
				delete(x.mem, term)
			} else {
				x.mem[term] = kept
			}
		}
		delete(x.memDocs, docID)
	}
	if !x.segDocs[docID] {
		return nil // never flushed: nothing to tombstone
	}
	for _, s := range x.segments {
		if !s.dead[docID] {
			s.dead[docID] = true
			if err := x.manifest.PutOp(op, tombKey(s.id, docID), nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush writes the in-memory buffer to a new immutable segment, logging
// into op.
func (x *Index) Flush(op *pager.Op) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.flushLocked(op)
}

func (x *Index) flushLocked(op *pager.Op) error {
	if len(x.mem) == 0 {
		return nil
	}
	tr, err := btree.CreateOp(x.pg, x.alloc, op)
	if err != nil {
		return err
	}
	terms := make([]string, 0, len(x.mem))
	for t := range x.mem {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, term := range terms {
		ps := x.mem[term]
		sort.Slice(ps, func(i, j int) bool { return ps[i].DocID < ps[j].DocID })
		if err := tr.PutOp(op, []byte(term), encodePostings(ps)); err != nil {
			return err
		}
	}
	id := x.nextSeg
	x.nextSeg++
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], tr.HeaderPage())
	if err := x.manifest.PutOp(op, segKey(id), hdr[:]); err != nil {
		return err
	}
	x.segments = append(x.segments, &segment{id: id, tree: tr, dead: map[uint64]bool{}})
	for doc := range x.memDocs {
		if !x.segDocs[doc] {
			x.segDocs[doc] = true
			if err := x.manifest.PutOp(op, docKey(doc), nil); err != nil {
				return err
			}
		}
	}
	x.mem = make(map[string][]Posting)
	x.memDocs = make(map[uint64]bool)
	x.flushes++
	if len(x.segments) > x.cfg.MaxSegments {
		return x.compactLocked(op)
	}
	return nil
}

// Compact merges all segments into one, dropping tombstoned postings.
// Logs into op.
func (x *Index) Compact(op *pager.Op) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.compactLocked(op)
}

func (x *Index) compactLocked(op *pager.Op) error {
	if len(x.segments) <= 1 {
		return nil
	}
	merged := map[string][]Posting{}
	live := map[uint64]bool{}
	for _, s := range x.segments {
		err := s.tree.Scan(nil, nil, func(k, v []byte) bool {
			ps := decodePostings(v)
			kept := ps[:0]
			for _, p := range ps {
				if !s.dead[p.DocID] {
					kept = append(kept, p)
					live[p.DocID] = true
				}
			}
			if len(kept) > 0 {
				merged[string(k)] = append(merged[string(k)], kept...)
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	tr, err := btree.CreateOp(x.pg, x.alloc, op)
	if err != nil {
		return err
	}
	terms := make([]string, 0, len(merged))
	for t := range merged {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, term := range terms {
		ps := merged[term]
		sort.Slice(ps, func(i, j int) bool { return ps[i].DocID < ps[j].DocID })
		if err := tr.PutOp(op, []byte(term), encodePostings(ps)); err != nil {
			return err
		}
	}
	// Swap in the merged segment, dropping the old ones and their
	// manifest entries and tombstones.
	for _, s := range x.segments {
		if err := x.manifest.DeleteOp(op, segKey(s.id)); err != nil {
			return err
		}
		for doc := range s.dead {
			if err := x.manifest.DeleteOp(op, tombKey(s.id, doc)); err != nil && !errors.Is(err, btree.ErrNotFound) {
				return err
			}
		}
		if err := s.tree.Drop(op); err != nil {
			return err
		}
	}
	id := x.nextSeg
	x.nextSeg++
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], tr.HeaderPage())
	if err := x.manifest.PutOp(op, segKey(id), hdr[:]); err != nil {
		return err
	}
	x.segments = []*segment{{id: id, tree: tr, dead: map[uint64]bool{}}}
	// Prune the doc registry to what actually survived the merge.
	for doc := range x.segDocs {
		if !live[doc] {
			delete(x.segDocs, doc)
			if err := x.manifest.DeleteOp(op, docKey(doc)); err != nil && !errors.Is(err, btree.ErrNotFound) {
				return err
			}
		}
	}
	x.compactions++
	return nil
}

// postings returns the live postings for term across memory and segments.
func (x *Index) postings(term string) ([]Posting, error) {
	var out []Posting
	for _, s := range x.segments {
		v, err := s.tree.Get([]byte(term))
		if errors.Is(err, btree.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, p := range decodePostings(v) {
			if !s.dead[p.DocID] {
				out = append(out, p)
			}
		}
	}
	out = append(out, x.mem[term]...)
	sort.Slice(out, func(i, j int) bool { return out[i].DocID < out[j].DocID })
	return out, nil
}

// DocFreq returns the number of live postings for term — the planner's
// selectivity estimate.
func (x *Index) DocFreq(term string) (int, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	ps, err := x.postings(stemQuery(term))
	if err != nil {
		return 0, err
	}
	return len(ps), nil
}

// stemQuery normalizes a query term with the same analyzer as documents.
func stemQuery(term string) string {
	toks := Tokenize(term)
	if len(toks) == 0 {
		return ""
	}
	return toks[0]
}

// Search returns the docIDs containing every query term (conjunction),
// ascending. Terms are analyzed with the document analyzer.
func (x *Index) Search(terms ...string) ([]uint64, error) {
	scored, err := x.SearchRanked(terms...)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, len(scored))
	for i, s := range scored {
		ids[i] = s.DocID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// SearchRanked returns conjunction results ordered by descending summed
// term frequency (ties by ascending docID).
func (x *Index) SearchRanked(terms ...string) ([]ScoredDoc, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if len(terms) == 0 {
		return nil, nil
	}
	// Gather posting lists; analyze query terms first.
	lists := make([][]Posting, 0, len(terms))
	for _, t := range terms {
		qt := stemQuery(t)
		if qt == "" {
			return nil, nil
		}
		ps, err := x.postings(qt)
		if err != nil {
			return nil, err
		}
		if len(ps) == 0 {
			return nil, nil
		}
		lists = append(lists, ps)
	}
	// Intersect smallest-first.
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
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
			// Indexing failures are recorded by dropping the doc; the
			// synchronous API is available when callers need errors.
			if x.cfg.Bracket != nil {
				// A refused bracket (degraded volume) drops the doc, same
				// as any other lazy indexing failure.
				if op, done, err := x.cfg.Bracket(); err == nil {
					_ = done(x.Add(op, job.docID, job.text))
				}
			} else {
				_ = x.Add(nil, job.docID, job.text)
			}
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

// Close stops background work and flushes buffered postings.
func (x *Index) Close() error {
	x.StopLazy()
	// The final flush allocates a segment like any other, so it runs in
	// an operation bracket like any other: an unlogged allocation on a
	// transactional volume would be missing from the log the next open
	// rebuilds the allocator from.
	var op *pager.Op
	done := func(err error) error { return err }
	flush := true
	if x.cfg.Bracket != nil {
		if bop, bdone, err := x.cfg.Bracket(); err == nil {
			op, done = bop, bdone
		} else {
			// The volume refuses mutations (degraded, read-only). Buffered
			// postings were never durable; they stay unflushed rather than
			// reach the pages behind the log's back.
			flush = false
		}
	}
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return done(ErrClosed)
	}
	var err error
	if flush {
		err = x.flushLocked(op)
	}
	x.closed = err == nil
	x.mu.Unlock()
	return done(err)
}

// --- postings codec ---

// encodePostings serializes sorted postings as uvarint count followed by
// (delta docID, tf) uvarint pairs.
func encodePostings(ps []Posting) []byte {
	buf := make([]byte, 0, 4+len(ps)*3)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(ps)))
	buf = append(buf, tmp[:n]...)
	var prev uint64
	for _, p := range ps {
		n = binary.PutUvarint(tmp[:], p.DocID-prev)
		buf = append(buf, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(p.TF))
		buf = append(buf, tmp[:n]...)
		prev = p.DocID
	}
	return buf
}

// decodePostings parses encodePostings output; malformed input yields the
// successfully decoded prefix.
func decodePostings(b []byte) []Posting {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil
	}
	b = b[n:]
	out := make([]Posting, 0, count)
	var prev uint64
	for i := uint64(0); i < count; i++ {
		d, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		b = b[n:]
		tf, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		b = b[n:]
		prev += d
		out = append(out, Posting{prev, uint32(tf)})
	}
	return out
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
