package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"repro/hfad"
	"repro/internal/fulltext"
	"repro/internal/index"
	"repro/internal/workload"
)

// opClass is one kind of client operation. Every operation is a user
// action made of several library calls, sized so that it takes at least
// ~100 µs: below that the timer and the scheduler, not the store, set the
// spread of a latency percentile on a small box.
type opClass uint8

const (
	opFindRead  opClass = iota // Find(g ∧ app) → Names → open + read 512 B of the first hit
	opPage                     // FindPage limit 20 after a cursor on a shelf tag
	opSearch                   // FULLTEXT two-term phrase, then a unique-term lookup
	opRead                     // open + read 512 B of readFan documents
	opList                     // full listing of one APP tag, Stat of every hit (heavy)
	opAppend                   // appendFan × (open, append 256 B, close), a commit each
	opTag                      // tagFan × Tag, a commit each
	opIngest                   // Store.Batch creating spec.batch documents
	opIngestBig                // Store.Batch creating 4 × spec.batch documents (heavy)
	opProbe                    // tail only: Find beside the same terms at the index layer, and Profile
	numClasses
)

var classNames = [numClasses]string{
	"find_read", "page", "search", "read", "list", "append", "tag", "ingest", "ingest_big", "probe",
}

const (
	readFan    = 20
	appendFan  = 3
	tagFan     = 6
	maxFan     = readFan
	appendSize = 256
	readSize   = 512
	pageLimit  = 20

	// Names. The broad ones are scoped to a block of documents, so a list
	// never outgrows block/shelves or block/apps entries however many
	// documents a run ingests: fsck compares every name with its whole
	// list, which is quadratic in the length of a list.
	groups  = 500  // UDEF g:<i%groups>: lists of a few documents
	block   = 4000 // documents per scope of the two names below
	shelves = 16   // UDEF shelf:<i/block>:<i%shelves>: lists of 250
	apps    = 14   // APP app<i/block>:<i%apps>: lists of 286
	uniq    = 10   // every uniq-th document carries the term uq<i>

	zipfOffset = 32
	fnvPrime   = 1099511628211 // the stream hash is FNV-1a over classes and documents

	loadBatch = 100  // documents per Store.Batch while loading
	loadSync  = 1000 // documents between Store.Sync calls while loading
	walBlocks = 4096 // 16 MiB: no checkpoint fires between two load syncs
	tailOps   = 40   // rounds of the tail mixes before the crash
)

// spec sizes one workload. Why each exists is in BENCHMARK.json and
// README.md.
type spec struct {
	name string
	// docs are preloaded; every text is cut to exactly docBytes, so that
	// space use does not depend on the word lengths a seed happens to draw;
	// pool is the number of distinct texts (document i carries text i%pool).
	docs, docBytes, pool int
	cachePages           int
	devBlocks            uint64
	batch                int // documents an opIngest creates
	// rate is the number of operations measured for each second asked for:
	// what the host the benchmark was sized on (2 cores, 2.1 GHz) completes,
	// so that -seconds 15 measures for about 15 s there. A fixed count makes
	// everything counted repeat for a seed, and keeps the store the size the
	// rest of the run is budgeted for.
	rate    float64
	warmOps int
	// mix gives each class its share of every 100 measured operations.
	mix [numClasses]int
}

var queryMix = [numClasses]int{opFindRead: 30, opPage: 23, opSearch: 20, opRead: 25, opList: 2}

var specs = []spec{
	{
		name: "ingest_batch",
		docs: 2000, docBytes: 2048, pool: 1024, cachePages: 4096, devBlocks: 1 << 18, batch: 25, rate: 150, warmOps: 20,
		mix: [numClasses]int{opIngest: 98, opIngestBig: 2},
	},
	{
		name: "query_resident",
		docs: 4000, docBytes: 640, pool: 4000, cachePages: 16384, devBlocks: 1 << 16, batch: 25, rate: 9500, warmOps: 4000,
		mix: queryMix,
	},
	{
		name: "query_spill",
		docs: 4000, docBytes: 640, pool: 4000, cachePages: 256, devBlocks: 1 << 16, batch: 25, rate: 7000, warmOps: 4000,
		mix: queryMix,
	},
	{
		name: "mixed_txn",
		docs: 4000, docBytes: 640, pool: 4000, cachePages: 8192, devBlocks: 1 << 17, batch: 4, rate: 8000, warmOps: 2000,
		mix: [numClasses]int{opRead: 33, opPage: 25, opAppend: 32, opTag: 8, opIngest: 2},
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// tailMix is one operation of every class, so that a traced run has spans
// of every call on every workload. recoveryMix follows it after a
// checkpoint: the writes every run recovers from its log. They are names
// only, because the store loses object bytes written after its latest
// checkpoint when the block they land in already has a checksum in the
// durable sidecar — an append into the slack of an extent's last block, or
// a new extent on a block freed earlier: the write is acknowledged, yet
// after a crash the block fails its (stale) checksum and the object no
// longer reads. See README.md and TestAckedBytesSurviveCrash.
var (
	tailMix = [numClasses]int{opFindRead: 1, opPage: 1, opSearch: 1, opRead: 1, opList: 1,
		opAppend: 1, opTag: 1, opIngest: 1, opProbe: 1}
	recoveryMix = [numClasses]int{opTag: 1}
)

// model is the generator's oracle: what the store must hold after the
// operations acknowledged so far. Document i has text pool[i%len(pool)]
// (plus the term uq<i> when i%uniq == 0), names g:<i%groups>,
// shelf:<i%shelves> and app<i%apps>, appended[i] appends of appendSize
// bytes and tagged[i] names t:<i>:<n>.
type model struct {
	pool      []string
	terms     map[string][]int32 // analyzed term → pool indices, ascending
	phrase    [][2]string        // two terms of each pool text, for opSearch
	oids      []hfad.OID
	appended  []uint32
	tagged    []uint32
	userBytes int64
}

func newModel(seed uint64, sp *spec) *model {
	// The shortest word has four letters, so docBytes/5+1 words and their
	// spaces always reach docBytes.
	docs := workload.DocCorpus(seed, workload.DocCorpusConfig{Docs: sp.pool, WordsPer: sp.docBytes/5 + 1, RareEvery: sp.pool + 1})
	m := &model{terms: make(map[string][]int32)}
	distinct := make([][]string, len(docs))
	for p, d := range docs {
		text := d.Text[:sp.docBytes-1] + " "
		m.pool = append(m.pool, text)
		for _, t := range fulltext.Tokenize(text) {
			if l := m.terms[t]; len(l) == 0 || l[len(l)-1] != int32(p) {
				m.terms[t] = append(l, int32(p))
				distinct[p] = append(distinct[p], t)
			}
		}
	}
	// A search costs what its two posting lists are long, and a zipfian
	// vocabulary has lists of every length. Each text's phrase is drawn
	// from its terms nearest one frequency — in a twentieth of the texts —
	// so that the cost of a search does not depend on which texts a seed
	// makes hot.
	rng := workload.NewRng(seed ^ 0x7e3a)
	for _, ts := range distinct {
		want := float64(len(docs)) / 20
		off := func(t string) float64 { return math.Abs(float64(len(m.terms[t])) - want) }
		sort.Slice(ts, func(i, j int) bool { return off(ts[i]) < off(ts[j]) || off(ts[i]) == off(ts[j]) && ts[i] < ts[j] })
		a := rng.IntN(6)
		b := (a + 1 + rng.IntN(5)) % 6
		m.phrase = append(m.phrase, [2]string{ts[a], ts[b]})
	}
	return m
}

func (m *model) count() int { return len(m.oids) }

// reset forgets the store's contents, for a fresh set-up.
func (m *model) reset() {
	m.oids, m.appended, m.tagged, m.userBytes = nil, nil, nil, 0
}

func (m *model) text(i int) string {
	t := m.pool[i%len(m.pool)]
	if i%uniq == 0 {
		t += "uq" + strconv.Itoa(i) + " "
	}
	return t
}

// appendBytes is what the n-th append to document i writes.
func appendBytes(buf []byte, i int, n uint32) []byte {
	buf = buf[:appendSize]
	for j := range buf {
		buf[j] = byte(i*131 + int(n)*31 + j)
	}
	return buf
}

func (m *model) size(i int) uint64 {
	return uint64(len(m.text(i))) + appendSize*uint64(m.appended[i])
}

// congruent lists the documents i in [from, to) with i%mod == rem, at
// most limit of them (0 = all), as OIDs. OIDs rise with the document
// index, so this is the order Find returns.
func (m *model) congruent(mod, rem, from, to, limit int, keep func(i int) bool) []hfad.OID {
	var out []hfad.OID
	if to > m.count() {
		to = m.count()
	}
	for i := from + ((rem-from)%mod+mod)%mod; i < to; i += mod {
		if keep != nil && !keep(i) {
			continue
		}
		out = append(out, m.oids[i])
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// withTerms lists the documents whose text holds both analyzed terms.
func (m *model) withTerms(a, b string) []hfad.OID {
	la, lb := m.terms[a], m.terms[b]
	var both []int32
	for i, j := 0, 0; i < len(la) && j < len(lb); {
		switch {
		case la[i] < lb[j]:
			i++
		case la[i] > lb[j]:
			j++
		default:
			both = append(both, la[i])
			i, j = i+1, j+1
		}
	}
	var out []hfad.OID
	for base := 0; base < m.count(); base += len(m.pool) {
		for _, p := range both {
			if base+int(p) < m.count() {
				out = append(out, m.oids[base+int(p)])
			}
		}
	}
	return out
}

// names is the set of names document i must carry, full-text aside (the
// reverse index keeps no value for content indexes).
func (m *model) names(i int) map[string]bool {
	out := map[string]bool{
		hfad.TagUDef + "=" + groupName(i): true,
		hfad.TagUDef + "=" + shelfName(i): true,
		hfad.TagApp + "=" + appName(i):    true,
	}
	for n := uint32(0); n < m.tagged[i]; n++ {
		out[hfad.TagUDef+"="+tagValue(i, n)] = true
	}
	return out
}

func groupName(i int) string { return "g:" + strconv.Itoa(i%groups) }
func shelfName(i int) string { return "shelf:" + strconv.Itoa(i/block) + ":" + strconv.Itoa(i%shelves) }
func appName(i int) string   { return "app" + strconv.Itoa(i/block) + ":" + strconv.Itoa(i%apps) }

// scope is the first document after i's block of broad names.
func scope(i int) int { return (i/block + 1) * block }

func tagValue(i int, n uint32) string {
	return "t:" + strconv.Itoa(i) + ":" + strconv.FormatUint(uint64(n), 10)
}

// op is one generated operation: its class and the documents it touches.
type op struct {
	class opClass
	k     [maxFan]int
}

// gen draws operations from a seed. The class schedule is a shuffled
// block of 100 slots holding each class exactly mix[class] times, so the
// shares — and with them which class a percentile lands in — are the same
// for every seed; documents are zipfian over the preloaded set (exponent
// 1.07 as elsewhere in the repository, but offset so that the hottest
// document draws under 1 % of the traffic and no single document's
// position or size decides a run), scattered over the OID space by a
// permutation.
type gen struct {
	rng   workload.Rng
	zipf  *rand.Zipf
	perm  []int
	slots []opClass
	at    int
	hash  uint64
}

func newGen(seed uint64, docs int, mix [numClasses]int) *gen {
	rng := workload.NewRng(seed)
	g := &gen{rng: rng, zipf: rand.NewZipf(rng.Rand, 1.07, zipfOffset, uint64(docs-1)), perm: rng.Perm(docs)}
	for c, n := range mix {
		for ; n > 0; n-- {
			g.slots = append(g.slots, opClass(c))
		}
	}
	g.at = len(g.slots)
	return g
}

func (g *gen) next() op {
	if g.at == len(g.slots) {
		g.rng.Shuffle(len(g.slots), func(i, j int) { g.slots[i], g.slots[j] = g.slots[j], g.slots[i] })
		g.at = 0
	}
	o := op{class: g.slots[g.at]}
	g.at++
	g.hash = (g.hash ^ uint64(o.class)) * fnvPrime
	for i := range o.k {
		o.k[i] = g.perm[g.zipf.Uint64()]
		g.hash = (g.hash ^ uint64(o.k[i])) * fnvPrime
	}
	return o
}

// executor runs operations against a store and checks every result
// against the model. It is the benchmark's one client.
type executor struct {
	st    *hfad.Store
	m     *model
	batch int       // documents an opIngest creates
	rec   *recorder // non-nil while tracing
	cur   int32     // the running operation's span
	buf   []byte

	attempted, failed int64
	failures          []string

	// Profile's iterator work over the probe operations.
	seeks, emits, results int64
}

func newExecutor(st *hfad.Store, m *model, batch int) *executor {
	return &executor{st: st, m: m, batch: batch, cur: background, buf: make([]byte, 4096)}
}

func (x *executor) failf(format string, args ...any) {
	x.failed++
	if len(x.failures) < 10 {
		x.failures = append(x.failures, fmt.Sprintf(format, args...))
	}
}

func (x *executor) begin(kind spanKind) int32 { return x.beginIn(kind, x.cur) }

func (x *executor) beginIn(kind spanKind, parent int32) int32 {
	if x.rec == nil {
		return background
	}
	return x.rec.open(kind, 0, parent)
}

func (x *executor) end(id int32) {
	if x.rec != nil {
		x.rec.close(id)
	}
}

// expectOIDs compares a query result with the oracle's.
func (x *executor) expectOIDs(what string, got, want []hfad.OID) bool {
	if len(got) != len(want) {
		x.failf("%s: %d results, want %d", what, len(got), len(want))
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			x.failf("%s: result %d is object %d, want %d", what, i, got[i], want[i])
			return false
		}
	}
	return true
}

// do runs one operation. An operation with any wrong or failed call
// counts once as failed.
func (x *executor) do(o op) {
	x.attempted++
	before := x.failed
	if x.rec != nil {
		x.cur = x.rec.open(spOp, uint8(o.class), background)
	}
	var err error
	switch o.class {
	case opFindRead:
		err = x.findRead(o.k[0])
	case opPage:
		err = x.page(o.k[0])
	case opSearch:
		err = x.search(o.k[0])
	case opRead:
		for _, k := range o.k[:readFan] {
			if err = x.read(k); err != nil {
				break
			}
		}
	case opList:
		err = x.list(o.k[0])
	case opAppend:
		for _, k := range o.k[:appendFan] {
			if err = x.append(k); err != nil {
				break
			}
		}
	case opTag:
		for _, k := range o.k[:tagFan] {
			if err = x.tag(k); err != nil {
				break
			}
		}
	case opIngest:
		err = x.ingest(x.batch)
	case opIngestBig:
		err = x.ingest(4 * x.batch)
	case opProbe:
		err = x.probe(o.k[0])
	}
	if x.rec != nil {
		x.rec.close(x.cur)
		x.cur = background
	}
	if err != nil {
		x.failf("%s: %v", classNames[o.class], err)
	}
	if x.failed > before {
		x.failed = before + 1
	}
}

// pair is the two-term conjunction the find operations resolve: a narrow
// name and a broad one, matching document k and at most one more.
func pair(k int) (hfad.TagValue, hfad.TagValue) {
	return hfad.TV(hfad.TagUDef, groupName(k)), hfad.TV(hfad.TagApp, appName(k))
}

// firstOfPair is the lowest document pair(k) matches.
func firstOfPair(k int) int {
	i := scope(k) - block
	for i%groups != k%groups || i%apps != k%apps {
		i++
	}
	return i
}

func (x *executor) wantPair(k int) []hfad.OID {
	return x.m.congruent(groups, k%groups, firstOfPair(k), scope(k), 0, func(i int) bool { return i%apps == k%apps })
}

func (x *executor) findRead(k int) error {
	g, a := pair(k)
	id := x.begin(spFind)
	ids, err := x.st.Find(g, a)
	x.end(id)
	if err != nil {
		return err
	}
	if !x.expectOIDs("find", ids, x.wantPair(k)) {
		return nil
	}
	first := firstOfPair(k)
	id = x.begin(spNames)
	names, err := x.st.Names(ids[0])
	x.end(id)
	if err != nil {
		return err
	}
	// Three tags, the full-text name, and the tags added since.
	if want := 4 + int(x.m.tagged[first]); len(names) != want {
		x.failf("names of document %d: %d, want %d", first, len(names), want)
	}
	return x.read(first)
}

func (x *executor) read(i int) error {
	id := x.begin(spOpen)
	obj, err := x.st.OpenObject(x.m.oids[i])
	x.end(id)
	if err != nil {
		return err
	}
	defer obj.Close()
	id = x.begin(spRead)
	n, err := obj.ReadAt(x.buf[:readSize], 0)
	x.end(id)
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	want := x.m.text(i)
	if len(want) > readSize {
		want = want[:readSize]
	}
	if string(x.buf[:n]) != want {
		x.failf("read of document %d: wrong bytes", i)
	}
	return nil
}

func (x *executor) page(k int) error {
	id := x.begin(spFindPage)
	ids, err := x.st.FindPage(hfad.Page{Limit: pageLimit, After: x.m.oids[k]}, hfad.TV(hfad.TagUDef, shelfName(k)))
	x.end(id)
	if err != nil {
		return err
	}
	x.expectOIDs("page", ids, x.m.congruent(shelves, k%shelves, k+1, scope(k), pageLimit, nil))
	return nil
}

func (x *executor) search(k int) error {
	ph := x.m.phrase[k%len(x.m.pool)]
	id := x.begin(spSearch)
	ids, err := x.st.Find(hfad.TV(hfad.TagFulltext, ph[0]+" "+ph[1]))
	x.end(id)
	if err != nil {
		return err
	}
	x.expectOIDs("search", ids, x.m.withTerms(ph[0], ph[1]))
	u := k / uniq * uniq
	id = x.begin(spSearchUniq)
	ids, err = x.st.Find(hfad.TV(hfad.TagFulltext, "uq"+strconv.Itoa(u)))
	x.end(id)
	if err != nil {
		return err
	}
	x.expectOIDs("unique term", ids, []hfad.OID{x.m.oids[u]})
	return nil
}

func (x *executor) list(k int) error {
	id := x.begin(spFind)
	ids, err := x.st.Find(hfad.TV(hfad.TagApp, appName(k)))
	x.end(id)
	if err != nil {
		return err
	}
	// The first document of k's block that shares its APP name.
	first := scope(k) - block
	first += ((k-first)%apps + apps) % apps
	if !x.expectOIDs("list", ids, x.m.congruent(apps, k%apps, first, scope(k), 0, nil)) {
		return nil
	}
	for n, oid := range ids {
		id = x.begin(spStat)
		meta, err := x.st.Stat(oid)
		x.end(id)
		if err != nil {
			return err
		}
		if i := first + n*apps; meta.Size != x.m.size(i) {
			x.failf("stat of document %d: size %d, want %d", i, meta.Size, x.m.size(i))
		}
	}
	return nil
}

func (x *executor) append(i int) error {
	obj, err := x.st.OpenObject(x.m.oids[i])
	if err != nil {
		return err
	}
	defer obj.Close()
	id := x.begin(spAppend)
	err = obj.Append(appendBytes(x.buf, i, x.m.appended[i]))
	x.end(id)
	if err != nil {
		return err
	}
	x.m.appended[i]++
	x.m.userBytes += appendSize
	return nil
}

func (x *executor) tag(i int) error {
	id := x.begin(spTag)
	err := x.st.Tag(x.m.oids[i], hfad.TagUDef, tagValue(i, x.m.tagged[i]))
	x.end(id)
	if err != nil {
		return err
	}
	x.m.tagged[i]++
	return nil
}

// ingest creates n documents in one Store.Batch: payload, three names and
// the full-text index each. The model grows only once the batch is
// acknowledged.
func (x *executor) ingest(n int) error {
	base := x.m.count()
	oids := make([]hfad.OID, 0, n)
	id := x.begin(spBatch)
	err := x.st.Batch(func(b *hfad.Batch) error {
		fn := x.beginIn(spBatchFn, id)
		defer x.end(fn)
		for i := base; i < base+n; i++ {
			oid, err := x.ingestOne(b, fn, i)
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	})
	x.end(id)
	if err != nil {
		return err
	}
	if base > 0 && oids[0] <= x.m.oids[base-1] {
		return fmt.Errorf("object ids do not rise with creation order: %d after %d", oids[0], x.m.oids[base-1])
	}
	x.m.oids = append(x.m.oids, oids...)
	x.m.appended = append(x.m.appended, make([]uint32, n)...)
	x.m.tagged = append(x.m.tagged, make([]uint32, n)...)
	for i := base; i < base+n; i++ {
		x.m.userBytes += int64(len(x.m.text(i)))
	}
	return nil
}

func (x *executor) ingestOne(b *hfad.Batch, fn int32, i int) (hfad.OID, error) {
	c := x.beginIn(spCreate, fn)
	obj, err := b.CreateObject("bench")
	x.end(c)
	if err != nil {
		return 0, err
	}
	defer obj.Close()
	oid := obj.OID()
	if err := errors.Join(
		b.Append(obj, []byte(x.m.text(i))),
		b.Tag(oid, hfad.TagUDef, groupName(i)),
		b.Tag(oid, hfad.TagUDef, shelfName(i)),
		b.Tag(oid, hfad.TagApp, appName(i)),
	); err != nil {
		return 0, err
	}
	c = x.beginIn(spIndexContent, fn)
	err = b.IndexContent(oid)
	x.end(c)
	return oid, err
}

// probe times Store.Find beside the same two posting lists intersected at
// the index layer (the difference is the planner's own time), and collects
// the iterator work Profile reports.
func (x *executor) probe(k int) error {
	g, a := pair(k)
	want := x.wantPair(k)
	id := x.begin(spProbeFind)
	ids, err := x.st.Find(g, a)
	x.end(id)
	if err != nil {
		return err
	}
	x.expectOIDs("probe find", ids, want)

	reg := x.st.Volume().Registry()
	id = x.begin(spIndexDrain)
	var its []index.Iterator
	for _, tv := range []hfad.TagValue{g, a} {
		st, err := reg.Get(tv.Tag)
		if err != nil {
			return err
		}
		it, err := index.IterFor(st, tv.Value)
		if err != nil {
			return err
		}
		its = append(its, it)
	}
	ids, err = index.Drain(index.Intersect(its...), 0)
	x.end(id)
	if err != nil {
		return err
	}
	x.expectOIDs("probe index", ids, want)

	id = x.begin(spProfile)
	ids, steps, err := x.st.Profile(hfad.And{Kids: []hfad.Query{hfad.Term{Tag: g.Tag, Value: g.Value}, hfad.Term{Tag: a.Tag, Value: a.Value}}}, hfad.Page{})
	x.end(id)
	if err != nil {
		return err
	}
	x.expectOIDs("probe profile", ids, want)
	for _, s := range steps {
		x.seeks += s.Seeks
		x.emits += s.Steps
	}
	x.results += int64(len(ids))
	return nil
}

// verify reads back every acknowledged write from a reopened store:
// every document's size, bytes and names. Full-text postings are left
// out: the index buffers up to FulltextFlushDocs documents in memory, so
// an acknowledged IndexContent is not durable until the next segment
// flush. It returns the mean extents per object.
func (x *executor) verify() float64 {
	var extents uint64
	for i, oid := range x.m.oids {
		x.attempted++
		before := x.failed
		if err := x.verifyDoc(i, oid, &extents); err != nil {
			x.failf("readback of document %d: %v", i, err)
		}
		if x.failed > before {
			x.failed = before + 1
		}
	}
	return float64(extents) / float64(len(x.m.oids))
}

func (x *executor) verifyDoc(i int, oid hfad.OID, extents *uint64) error {
	obj, err := x.st.OpenObject(oid)
	if err != nil {
		return err
	}
	defer obj.Close()
	*extents += obj.ExtentCount()
	want := []byte(x.m.text(i))
	for n := uint32(0); n < x.m.appended[i]; n++ {
		want = append(want, appendBytes(x.buf, i, n)...)
	}
	if obj.Size() != uint64(len(want)) {
		x.failf("document %d: size %d after reopen, want %d", i, obj.Size(), len(want))
		return nil
	}
	got := make([]byte, len(want))
	if _, err := obj.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	if !bytes.Equal(got, want) {
		x.failf("document %d: wrong bytes after reopen", i)
	}
	names, err := x.st.Names(oid)
	if err != nil {
		return err
	}
	wantNames := x.m.names(i)
	for _, tv := range names {
		if tv.Tag == hfad.TagFulltext {
			continue
		}
		key := tv.Tag + "=" + string(tv.Value)
		if !wantNames[key] {
			x.failf("document %d: unexpected name %s after reopen", i, key)
		}
		delete(wantNames, key)
	}
	for key := range wantNames {
		x.failf("document %d: name %s lost in the crash", i, key)
	}
	return nil
}
