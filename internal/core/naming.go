package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/pager"
)

// TagValue is one naming term: "an object is named by one or more
// tag/value pairs. A tag tells hFAD how to interpret the value and in
// which of multiple indexes to search."
type TagValue struct {
	Tag   string
	Value []byte
}

// TV builds a TagValue from strings.
func TV(tag, value string) TagValue { return TagValue{tag, []byte(value)} }

// reverse-index key: oid (8 bytes BE) | tag | 0x00 | value.
func revKey(oid OID, tag string, value []byte) []byte {
	k := make([]byte, 0, 9+len(tag)+len(value))
	var ob [8]byte
	binary.BigEndian.PutUint64(ob[:], uint64(oid))
	k = append(k, ob[:]...)
	k = append(k, tag...)
	k = append(k, 0x00)
	return append(k, value...)
}

func revPrefix(oid OID) []byte {
	var ob [8]byte
	binary.BigEndian.PutUint64(ob[:], uint64(oid))
	return ob[:]
}

func parseRevKey(k []byte) (TagValue, error) {
	if len(k) < 9 {
		return TagValue{}, fmt.Errorf("%w: short reverse key", ErrQuery)
	}
	rest := k[8:]
	for i, b := range rest {
		if b == 0x00 {
			return TagValue{Tag: string(rest[:i]), Value: append([]byte(nil), rest[i+1:]...)}, nil
		}
	}
	return TagValue{}, fmt.Errorf("%w: unterminated reverse key", ErrQuery)
}

// AddName attaches a (tag, value) name to the object. For the FULLTEXT
// tag the value is document text to analyze; its reverse entry records
// only the tag (the text itself is not a recoverable name).
func (v *Volume) AddName(oid OID, tag string, value []byte) error {
	unlock, err := v.rlock()
	if err != nil {
		return err
	}
	defer unlock()
	return v.withOp(func(op *pager.Op) error { return v.addNameDeferred(op, oid, tag, value) })
}

// addNameDeferred does the index and reverse-index work of AddName with
// no commit; the caller owns the operation bracket and its redo capture.
func (v *Volume) addNameDeferred(op *pager.Op, oid OID, tag string, value []byte) error {
	st, err := v.registry.Get(tag)
	if err != nil {
		return err
	}
	if err := st.Insert(op, value, oid); err != nil {
		return err
	}
	return v.reverse.PutOp(op, revKey(oid, tag, reverseValue(tag, value)), nil)
}

// reverseValue is the value recorded in the reverse index for a name:
// content tags store only the tag (the text/bitmap is not a recoverable
// name).
func reverseValue(tag string, value []byte) []byte {
	if tag == index.TagFulltext || tag == index.TagImage {
		return nil
	}
	return value
}

// RemoveName detaches a (tag, value) name.
func (v *Volume) RemoveName(oid OID, tag string, value []byte) error {
	unlock, err := v.rlock()
	if err != nil {
		return err
	}
	defer unlock()
	return v.withOp(func(op *pager.Op) error { return v.removeNameDeferred(op, oid, tag, value) })
}

func (v *Volume) removeNameDeferred(op *pager.Op, oid OID, tag string, value []byte) error {
	st, err := v.registry.Get(tag)
	if err != nil {
		return err
	}
	if err := st.Remove(op, value, oid); err != nil {
		return err
	}
	if err := v.reverse.DeleteOp(op, revKey(oid, tag, reverseValue(tag, value))); err != nil && !errors.Is(err, btree.ErrNotFound) {
		return err
	}
	return nil
}

// Names lists all names attached to the object.
func (v *Volume) Names(oid OID) ([]TagValue, error) {
	unlock, err := v.rlock()
	if err != nil {
		return nil, err
	}
	defer unlock()
	return v.namesLocked(oid)
}

func (v *Volume) namesLocked(oid OID) ([]TagValue, error) {
	var out []TagValue
	var inner error
	err := v.reverse.ScanPrefix(revPrefix(oid), func(k, _ []byte) bool {
		tv, err := parseRevKey(k)
		if err != nil {
			inner = err
			return false
		}
		out = append(out, tv)
		return true
	})
	if inner != nil {
		return nil, inner
	}
	return out, err
}

// removeAllNamesDeferred strips every name from the object in op (used
// before deletion: "only the identifier for the data in the OSD layer must
// be unique" — once the names are gone, the object is unreachable except
// by ID). The names come from the reverse index.
func (v *Volume) removeAllNamesDeferred(op *pager.Op, oid OID) error {
	names, err := v.namesLocked(oid)
	if err != nil {
		return err
	}
	for _, tv := range names {
		st, err := v.registry.Get(tv.Tag)
		if err != nil {
			return err
		}
		if err := st.Remove(op, tv.Value, oid); err != nil {
			return err
		}
		if err := v.reverse.DeleteOp(op, revKey(oid, tv.Tag, tv.Value)); err != nil && !errors.Is(err, btree.ErrNotFound) {
			return err
		}
	}
	return nil
}

// DeleteObject removes all names and destroys the object, as one commit
// unit (name stripping and object destruction recover together or not at
// all).
func (v *Volume) DeleteObject(oid OID) error {
	unlock, err := v.rlock()
	if err != nil {
		return err
	}
	defer unlock()
	return v.withOp(func(op *pager.Op) error {
		if err := v.removeAllNamesDeferred(op, oid); err != nil {
			return err
		}
		return v.OSD.DeleteObjectDeferred(op, oid)
	})
}

// Resolve is the paper's naming operation: a vector of tag/value pairs
// whose result is "the conjunction of the results of an index lookup for
// each element in the vector". The ID tag short-circuits through the OSD
// (FastPath row of Table 1). Results are ascending by OID; "naming
// operations can return multiple items" and "no query need uniquely
// define a data item".
func (v *Volume) Resolve(pairs ...TagValue) ([]OID, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("%w: empty naming vector", ErrQuery)
	}
	qs := make([]Query, len(pairs))
	for i, p := range pairs {
		qs[i] = Term{p.Tag, p.Value}
	}
	return v.Query(And{qs})
}

// ResolveOne resolves to exactly one object, erring on zero results; with
// multiple results the lowest OID wins (callers wanting sets use Resolve).
// The streaming engine stops after the first match instead of computing
// the full conjunction.
func (v *Volume) ResolveOne(pairs ...TagValue) (OID, error) {
	if len(pairs) == 0 {
		return 0, fmt.Errorf("%w: empty naming vector", ErrQuery)
	}
	qs := make([]Query, len(pairs))
	for i, p := range pairs {
		qs[i] = Term{p.Tag, p.Value}
	}
	ids, err := v.QueryPage(And{qs}, Page{Limit: 1})
	if err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, ErrNotFound
	}
	return ids[0], nil
}

// --- boolean queries ---

// Query is a boolean tree over naming terms; the paper's open question
// "should [index stores] support arbitrary boolean queries?" answered
// affirmatively with a small planner.
type Query interface{ isQuery() }

// Term matches objects named (Tag, Value).
type Term struct {
	Tag   string
	Value []byte
}

// Range matches objects whose Tag value lies in [Lo, Hi) — only for tags
// whose store supports ordered lookup.
type Range struct {
	Tag    string
	Lo, Hi []byte
}

// And is a conjunction of subqueries; Not children are applied as set
// subtraction after the positive terms.
type And struct{ Kids []Query }

// Or is a disjunction of subqueries.
type Or struct{ Kids []Query }

// Not negates a subquery; valid only inside And (negation alone is
// unbounded).
type Not struct{ Kid Query }

func (Term) isQuery()  {}
func (Range) isQuery() {}
func (And) isQuery()   {}
func (Or) isQuery()    {}
func (Not) isQuery()   {}

// Page bounds a query's result set: at most Limit OIDs (0 = unlimited)
// strictly greater than After (0 = from the start). Because the engine
// evaluates queries as streaming iterators, a Limit stops evaluation after
// Limit results and an After seeks past the skipped prefix instead of
// recomputing and slicing the full answer — "naming operations can return
// multiple items" without ever materializing all of them.
type Page struct {
	Limit int
	After OID
}

// Query plans and executes q, returning matching OIDs ascending.
//
// Planning is deliberately small (another §4 question — "should they
// include full-fledged query optimizers?" — answered with just
// selectivity ordering): And terms are composed cheapest-estimated-first
// so the most selective iterator drives the intersection and the broad
// ones are seeked, not scanned.
func (v *Volume) Query(q Query) ([]OID, error) {
	return v.QueryPage(q, Page{})
}

// QueryPage executes q bounded by p, streaming out at most p.Limit OIDs
// greater than p.After.
func (v *Volume) QueryPage(q Query, p Page) ([]OID, error) {
	unlock, err := v.rlock()
	if err != nil {
		return nil, err
	}
	defer unlock()
	it, err := v.evalIter(q, nil, false)
	if err != nil {
		return nil, err
	}
	return drainPage(it, p)
}

// evalIter compiles q into a streaming iterator tree. When prof is
// non-nil every leaf iterator is wrapped with work accounting and
// recorded, in composition order, for Profile output.
func (v *Volume) evalIter(q Query, prof *profiler, negated bool) (index.Iterator, error) {
	return v.evalIterCost(q, prof, negated, -1)
}

// evalIterCost is evalIter with an optional pre-computed selectivity
// estimate (-1 = unknown), so a leaf whose cost the And planner already
// paid for is not re-estimated for its PlanStep — estimation walks the
// posting list's leaves, work the engine exists to avoid.
func (v *Volume) evalIterCost(q Query, prof *profiler, negated bool, cost int) (index.Iterator, error) {
	switch qq := q.(type) {
	case Term:
		return v.termIter(qq, prof, negated, cost)
	case Range:
		// Range results come off the index ordered by value, not OID, so
		// they are materialized and re-sorted before joining the stream.
		st, err := v.registry.Get(qq.Tag)
		if err != nil {
			return nil, err
		}
		r, ok := st.(index.Ranged)
		if !ok {
			return nil, fmt.Errorf("%w: tag %q does not support ranges", ErrQuery, qq.Tag)
		}
		ids, err := r.RangeLookup(qq.Lo, qq.Hi)
		if err != nil {
			return nil, err
		}
		it := index.NewSliceIter(index.DedupOIDs(ids))
		if prof == nil {
			return it, nil
		}
		if cost < 0 {
			cost = v.estimate(qq)
		}
		return index.Counted(it, prof.leaf(renderQuery(qq), cost, negated)), nil
	case Or:
		if len(qq.Kids) == 0 {
			return nil, fmt.Errorf("%w: empty Or", ErrQuery)
		}
		its := make([]index.Iterator, 0, len(qq.Kids))
		for _, kid := range qq.Kids {
			if _, isNot := kid.(Not); isNot {
				return nil, fmt.Errorf("%w: Not inside Or is unbounded", ErrQuery)
			}
			it, err := v.evalIter(kid, prof, negated)
			if err != nil {
				return nil, err
			}
			its = append(its, it)
		}
		return index.Union(its...), nil
	case And:
		return v.andIter(qq, prof)
	case Not:
		return nil, fmt.Errorf("%w: bare Not is unbounded", ErrQuery)
	default:
		return nil, fmt.Errorf("%w: unknown query node %T", ErrQuery, q)
	}
}

// termIter builds the leaf iterator for one naming term. cost is the
// planner's already-computed estimate, or -1 if none was needed.
func (v *Volume) termIter(t Term, prof *profiler, negated bool, cost int) (index.Iterator, error) {
	var it index.Iterator
	if t.Tag == index.TagID {
		// FastPath: "a special tag, ID, indicates that the value is
		// actually a unique object ID".
		oid, err := parseOIDValue(t.Value)
		if err != nil {
			return nil, err
		}
		if _, err := v.OSD.Stat(oid); err != nil {
			it = index.NewEmptyIter() // nonexistent: empty result, not an error
		} else {
			it = index.NewSliceIter([]OID{oid})
		}
	} else {
		st, err := v.registry.Get(t.Tag)
		if err != nil {
			return nil, err
		}
		it, err = index.IterFor(st, t.Value)
		if err != nil {
			return nil, err
		}
		// Defensive: plug-in stores must emit ascending unique OIDs; a
		// dedup wrapper makes adjacent duplicates harmless anyway.
		it = index.Deduped(it)
	}
	if prof == nil {
		return it, nil // skip the estimate: it costs an index Count
	}
	if cost < 0 {
		cost = v.estimate(t)
	}
	return index.Counted(it, prof.leaf(renderQuery(t), cost, negated)), nil
}

// andIter orders positive children by estimated selectivity and composes a
// leapfrog intersection driven by the cheapest one; Not children are
// unioned and subtracted from the stream. Estimation happens only when
// there is an order to choose: a lone positive child keeps cost -1, and
// its leaf estimates lazily if Profile asks.
func (v *Volume) andIter(a And, prof *profiler) (index.Iterator, error) {
	if len(a.Kids) == 0 {
		return nil, fmt.Errorf("%w: empty And", ErrQuery)
	}
	type planned struct {
		q    Query
		cost int
	}
	var pos []planned
	var neg []Query
	for _, kid := range a.Kids {
		if n, ok := kid.(Not); ok {
			neg = append(neg, n.Kid)
			continue
		}
		pos = append(pos, planned{kid, -1})
	}
	if len(pos) == 0 {
		return nil, fmt.Errorf("%w: And with only negations is unbounded", ErrQuery)
	}
	if len(pos) > 1 {
		for i := range pos {
			pos[i].cost = v.estimate(pos[i].q)
		}
		sort.SliceStable(pos, func(i, j int) bool { return pos[i].cost < pos[j].cost })
	}
	its := make([]index.Iterator, len(pos))
	for i, p := range pos {
		it, err := v.evalIterCost(p.q, prof, false, p.cost)
		if err != nil {
			return nil, err
		}
		its[i] = it
	}
	out := index.Intersect(its...)
	if len(neg) == 0 {
		return out, nil
	}
	negIts := make([]index.Iterator, len(neg))
	for i, nq := range neg {
		it, err := v.evalIter(nq, prof, true)
		if err != nil {
			return nil, err
		}
		negIts[i] = it
	}
	return index.Diff(out, index.Union(negIts...)), nil
}

// drainPage materializes a page of an iterator's stream.
func drainPage(it index.Iterator, p Page) ([]OID, error) {
	var (
		out []OID
		v   OID
		ok  bool
		err error
	)
	if p.After != 0 {
		if p.After == ^OID(0) {
			return nil, nil
		}
		v, ok, err = it.Seek(p.After + 1)
	} else {
		v, ok, err = it.Next()
	}
	for {
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, v)
		if p.Limit > 0 && len(out) >= p.Limit {
			return out, nil
		}
		v, ok, err = it.Next()
	}
}

func parseOIDValue(v []byte) (OID, error) {
	if len(v) == 8 {
		return OID(binary.BigEndian.Uint64(v)), nil
	}
	n, err := strconv.ParseUint(string(v), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad ID value %q", ErrQuery, v)
	}
	return OID(n), nil
}

// PlanStep describes one element of a query plan: the subquery rendered,
// its selectivity estimate, and its execution position. Profile
// additionally fills the iterator work counters: Seeks is how often the
// step's iterator was skipped forward by its intersection partners, Steps
// how many OIDs it actually surfaced — together they show a selective And
// seeking past a broad index instead of scanning it.
type PlanStep struct {
	Rendered string
	Estimate int
	Negated  bool
	Seeks    int64
	Steps    int64
}

// profiler collects one IterStats per leaf iterator, in the order the
// engine composed them.
type profiler struct {
	steps []*profStep
}

type profStep struct {
	rendered string
	estimate int
	negated  bool
	stats    *index.IterStats
}

// leaf registers a leaf step and returns its stats sink; nil-safe (a nil
// profiler returns a nil sink, which index.Counted ignores).
func (p *profiler) leaf(rendered string, estimate int, negated bool) *index.IterStats {
	if p == nil {
		return nil
	}
	st := &index.IterStats{}
	p.steps = append(p.steps, &profStep{rendered, estimate, negated, st})
	return st
}

// Profile executes q bounded by p and returns both the results and the
// executed plan: one step per leaf iterator in composition order
// (selectivity order inside each And, negations last), with the seek and
// emit counts the streaming engine actually performed. It is Explain with
// receipts.
func (v *Volume) Profile(q Query, p Page) ([]OID, []PlanStep, error) {
	unlock, err := v.rlock()
	if err != nil {
		return nil, nil, err
	}
	defer unlock()
	prof := &profiler{}
	it, err := v.evalIter(q, prof, false)
	if err != nil {
		return nil, nil, err
	}
	ids, err := drainPage(it, p)
	if err != nil {
		return nil, nil, err
	}
	steps := make([]PlanStep, len(prof.steps))
	for i, s := range prof.steps {
		steps[i] = PlanStep{
			Rendered: s.rendered,
			Estimate: s.estimate,
			Negated:  s.negated,
			Seeks:    s.stats.Seeks,
			Steps:    s.stats.Steps,
		}
	}
	return ids, steps, nil
}

// Explain returns the evaluation order the engine would compose iterators
// in for q, without executing it — answering §4's "how much control
// should [index stores] expose to filesystem clients?" with at least
// visibility. Only And nodes reorder; other shapes return a single step.
// Use Profile for the executed plan with seek counts.
func (v *Volume) Explain(q Query) ([]PlanStep, error) {
	a, ok := q.(And)
	if !ok {
		return []PlanStep{{Rendered: renderQuery(q), Estimate: v.estimate(q)}}, nil
	}
	if len(a.Kids) == 0 {
		return nil, fmt.Errorf("%w: empty And", ErrQuery)
	}
	type planned struct {
		q    Query
		cost int
	}
	var pos []planned
	var neg []Query
	for _, kid := range a.Kids {
		if n, isNot := kid.(Not); isNot {
			neg = append(neg, n.Kid)
			continue
		}
		pos = append(pos, planned{kid, v.estimate(kid)})
	}
	sort.SliceStable(pos, func(i, j int) bool { return pos[i].cost < pos[j].cost })
	out := make([]PlanStep, 0, len(pos)+len(neg))
	for _, p := range pos {
		out = append(out, PlanStep{Rendered: renderQuery(p.q), Estimate: p.cost})
	}
	for _, nq := range neg {
		out = append(out, PlanStep{Rendered: renderQuery(nq), Estimate: v.estimate(nq), Negated: true})
	}
	return out, nil
}

// renderQuery prints a query tree compactly for Explain output.
func renderQuery(q Query) string {
	switch qq := q.(type) {
	case Term:
		return fmt.Sprintf("%s=%q", qq.Tag, qq.Value)
	case Range:
		return fmt.Sprintf("%s∈[%q,%q)", qq.Tag, qq.Lo, qq.Hi)
	case And:
		s := "("
		for i, k := range qq.Kids {
			if i > 0 {
				s += " ∧ "
			}
			s += renderQuery(k)
		}
		return s + ")"
	case Or:
		s := "("
		for i, k := range qq.Kids {
			if i > 0 {
				s += " ∨ "
			}
			s += renderQuery(k)
		}
		return s + ")"
	case Not:
		return "¬" + renderQuery(qq.Kid)
	default:
		return fmt.Sprintf("%T", q)
	}
}

// estimate returns a rough result-size bound for planning; unknown shapes
// estimate large so they run last.
func (v *Volume) estimate(q Query) int {
	const unknown = 1 << 30
	switch qq := q.(type) {
	case Term:
		if qq.Tag == index.TagID {
			return 1
		}
		st, err := v.registry.Get(qq.Tag)
		if err != nil {
			return unknown
		}
		n, err := st.Count(qq.Value)
		if err != nil {
			return unknown
		}
		return n
	case And:
		best := unknown
		for _, kid := range qq.Kids {
			if _, isNot := kid.(Not); isNot {
				continue
			}
			if e := v.estimate(kid); e < best {
				best = e
			}
		}
		return best
	case Or:
		total := 0
		for _, kid := range qq.Kids {
			total += v.estimate(kid)
		}
		return total
	default:
		return unknown
	}
}

// --- iterative search refinement (§4: "extend the notion of a 'current
// directory' to be an iterative refinement of a search") ---

// Search is an immutable refinement chain: each Refine narrows the result
// set, Back pops to the previous scope — cd semantics for queries.
type Search struct {
	vol    *Volume
	parent *Search
	step   Query
}

// NewSearch starts an unrefined search (the root "directory").
func (v *Volume) NewSearch() *Search { return &Search{vol: v} }

// Refine returns a narrowed search (does not mutate the receiver).
func (s *Search) Refine(q Query) *Search {
	return &Search{vol: s.vol, parent: s, step: q}
}

// Back returns the enclosing search scope (nil-safe at the root).
func (s *Search) Back() *Search {
	if s.parent == nil {
		return s
	}
	return s.parent
}

// Depth reports how many refinements are in effect.
func (s *Search) Depth() int {
	d := 0
	for cur := s; cur.parent != nil; cur = cur.parent {
		d++
	}
	return d
}

// Query renders the accumulated conjunction, or nil at the root.
func (s *Search) Query() Query {
	var kids []Query
	for cur := s; cur.parent != nil; cur = cur.parent {
		kids = append(kids, cur.step)
	}
	if len(kids) == 0 {
		return nil
	}
	// Reverse into refinement order.
	for i, j := 0, len(kids)-1; i < j; i, j = i+1, j-1 {
		kids[i], kids[j] = kids[j], kids[i]
	}
	return And{kids}
}

// Results evaluates the current refinement; the root scope errs (an
// unrefined search would enumerate the volume — use OSD.ForEach for that).
func (s *Search) Results() ([]OID, error) {
	return s.ResultsPage(Page{})
}

// ResultsPage evaluates the current refinement bounded by p — paging
// through a "directory" whose contents are a query, without ever
// materializing the whole listing.
func (s *Search) ResultsPage(p Page) ([]OID, error) {
	q := s.Query()
	if q == nil {
		return nil, fmt.Errorf("%w: unrefined search", ErrQuery)
	}
	return s.vol.QueryPage(q, p)
}

// --- content indexing (the paper's lazy full-text path) ---

// IndexContent reads the object's bytes and indexes them as full text,
// synchronously.
func (v *Volume) IndexContent(oid OID) error {
	unlock, err := v.rlock()
	if err != nil {
		return err
	}
	defer unlock()
	text, err := v.readObjectText(oid)
	if err != nil {
		return err
	}
	return v.withOp(func(op *pager.Op) error { return v.addNameDeferred(op, oid, index.TagFulltext, text) })
}

// IndexContentLazy queues the object for the background indexer ("we use
// background threads to perform lazy full-text indexing"). The caller
// must have started the indexer via StartLazyIndexing.
func (v *Volume) IndexContentLazy(oid OID) error {
	unlock, err := v.rlock()
	if err != nil {
		return err
	}
	defer unlock()
	text, err := v.readObjectText(oid)
	if err != nil {
		return err
	}
	if !v.ft.Inner().Enqueue(uint64(oid), string(text)) {
		return fmt.Errorf("core: lazy indexer not running")
	}
	// Record the name relationship immediately; postings land when the
	// background thread gets there.
	return v.withOp(func(op *pager.Op) error { return v.reverse.PutOp(op, revKey(oid, index.TagFulltext, nil), nil) })
}

// StartLazyIndexing launches the background indexer.
func (v *Volume) StartLazyIndexing(queueDepth int) { v.ft.Inner().StartLazy(queueDepth) }

// WaitIndexIdle blocks until queued documents are searchable.
func (v *Volume) WaitIndexIdle() { v.ft.Inner().WaitIdle() }

// Content indexing takes at most the first maxIndexable bytes of an
// object. A Batch keeps at most maxBatchText bytes of the content it
// wrote for IndexContent; past that it reads objects back.
const (
	maxIndexable = 4 << 20
	maxBatchText = 4 * maxIndexable
)

func (v *Volume) readObjectText(oid OID) ([]byte, error) {
	obj, err := v.OSD.OpenObject(oid)
	if err != nil {
		return nil, err
	}
	defer obj.Close()
	size := obj.Size()
	if size > maxIndexable {
		size = maxIndexable
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := obj.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
			return nil, err
		}
	}
	return buf, nil
}
