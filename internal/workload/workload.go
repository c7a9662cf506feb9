// Package workload provides the deterministic generators behind the
// experiment suite: media libraries with attribute tags (the paper's
// motivating photo/video/audio management workload), document corpora with
// Zipfian vocabulary, path trees of controlled depth and fanout, and
// lognormal file sizes. Every generator is seeded, so experiment shapes
// reproduce exactly across runs and hosts.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
)

// Rng is the deterministic random source for a generator.
type Rng struct{ *rand.Rand }

// NewRng returns a seeded generator.
func NewRng(seed uint64) Rng {
	return Rng{rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))}
}

// Lognormal samples a lognormal value with the given log-space mean and
// sigma, clamped to [min, max]. File sizes in real systems are
// approximately lognormal.
func (r Rng) Lognormal(mu, sigma float64, min, max int) int {
	v := int(math.Exp(r.NormFloat64()*sigma + mu))
	if v < min {
		return min
	}
	if v > max {
		return max
	}
	return v
}

// syllables for pronounceable, deterministic names.
var syllables = []string{
	"ka", "ri", "to", "mu", "sa", "lo", "ve", "na", "pi", "dor",
	"mel", "tak", "shi", "run", "bel", "cor", "dan", "fel", "gor", "hul",
}

// Word produces a pronounceable word of n syllables.
func (r Rng) Word(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(syllables[r.IntN(len(syllables))])
	}
	return b.String()
}

// Bytes fills a deterministic pseudo-random buffer of length n.
func (r Rng) Bytes(n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	return out
}

// Zipf draws ranks in [0, n) with exponent s ≈ 1.07 (web-like skew).
type Zipf struct{ z *rand.Zipf }

// NewZipf builds a Zipf sampler over n items using r.
func (r Rng) NewZipf(n uint64) Zipf {
	return Zipf{rand.NewZipf(r.Rand, 1.07, 1, n-1)}
}

// Next returns the next rank.
func (z Zipf) Next() uint64 { return z.z.Uint64() }

// --- mixed-op streams (the serving workload of the server's hot-object test) ---

// OpKind is one operation class in a mixed serving workload.
type OpKind uint8

// Mixed-workload operation kinds.
const (
	OpRead  OpKind = iota // read an existing object's bytes
	OpWrite               // append to an existing object
	OpQuery               // paginated tag query
)

// String names the kind for tables and logs.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpQuery:
		return "query"
	default:
		return "?"
	}
}

// MixConfig weights a mixed read/write/query stream. Weights are
// relative; zero values fall back to the 60/30/10 serving default.
type MixConfig struct {
	Reads   int
	Writes  int
	Queries int
}

func (c *MixConfig) fill() {
	if c.Reads == 0 && c.Writes == 0 && c.Queries == 0 {
		c.Reads, c.Writes, c.Queries = 60, 30, 10
	}
}

// Mix generates a deterministic stream of (operation, object-rank)
// pairs: op kinds drawn with MixConfig's weights, target objects drawn
// Zipf-distributed over [0, objects) — the skewed mixed load a serving
// tier sees, reproducible from its seed.
type Mix struct {
	rng     Rng
	zipf    Zipf
	objects uint64
	rw, wq  uint64 // cumulative weight thresholds
	total   uint64
}

// NewMix builds a mixed-op generator over the given object population.
func NewMix(seed uint64, objects uint64, cfg MixConfig) *Mix {
	cfg.fill()
	if objects < 2 {
		objects = 2
	}
	r := NewRng(seed)
	return &Mix{
		rng:     r,
		zipf:    r.NewZipf(objects),
		objects: objects,
		rw:      uint64(cfg.Reads),
		wq:      uint64(cfg.Reads + cfg.Writes),
		total:   uint64(cfg.Reads + cfg.Writes + cfg.Queries),
	}
}

// Next returns the next operation kind and its Zipf-distributed object
// rank (hot objects have low ranks). Query ops use the rank to pick a
// query bucket rather than a single object.
func (m *Mix) Next() (OpKind, uint64) {
	w := m.rng.Uint64N(m.total)
	rank := m.zipf.Next()
	switch {
	case w < m.rw:
		return OpRead, rank
	case w < m.wq:
		return OpWrite, rank
	default:
		return OpQuery, rank
	}
}

// --- media library (the paper's §1 motivating workload) ---

// Photo is one item in a generated media library.
type Photo struct {
	Name   string // base file name
	Dir    string // hierarchical home ("/photos/<year>/<month>")
	Person string // who is in it
	Place  string // where it was taken
	Date   string // when (sortable YYYY-MM-DD)
	Camera string
	Size   int // content bytes
}

// Path returns the photo's hierarchical path.
func (p Photo) Path() string { return p.Dir + "/" + p.Name }

// MediaLibraryConfig sizes the generator.
type MediaLibraryConfig struct {
	Photos  int
	People  int // distinct persons (zipf-distributed appearance)
	Places  int
	Cameras int
	Years   int // date span starting 2000
	MinSize int // content size clamp (default 4 KiB)
	MaxSize int // default 256 KiB
}

func (c *MediaLibraryConfig) fill() {
	if c.People == 0 {
		c.People = 20
	}
	if c.Places == 0 {
		c.Places = 12
	}
	if c.Cameras == 0 {
		c.Cameras = 5
	}
	if c.Years == 0 {
		c.Years = 9
	}
	if c.MinSize == 0 {
		c.MinSize = 4 << 10
	}
	if c.MaxSize == 0 {
		c.MaxSize = 256 << 10
	}
}

// MediaLibrary generates a deterministic photo library. Persons and
// places are Zipf-distributed (some people appear in most photos), dates
// are uniform over the span, and photos land in /photos/<year>/<month>
// directories — the "canonical hierarchy" a user might pick, which the
// attribute queries then cut across.
func MediaLibrary(seed uint64, cfg MediaLibraryConfig) []Photo {
	cfg.fill()
	r := NewRng(seed)
	people := make([]string, cfg.People)
	for i := range people {
		people[i] = "person-" + r.Word(2)
	}
	places := make([]string, cfg.Places)
	for i := range places {
		places[i] = "place-" + r.Word(2)
	}
	cameras := make([]string, cfg.Cameras)
	for i := range cameras {
		cameras[i] = "cam-" + r.Word(1)
	}
	personZ := r.NewZipf(uint64(cfg.People))
	placeZ := r.NewZipf(uint64(cfg.Places))

	out := make([]Photo, cfg.Photos)
	for i := range out {
		year := 2000 + r.IntN(cfg.Years)
		month := 1 + r.IntN(12)
		day := 1 + r.IntN(28)
		out[i] = Photo{
			Name:   fmt.Sprintf("img_%06d.jpg", i),
			Dir:    fmt.Sprintf("/photos/%04d/%02d", year, month),
			Person: people[personZ.Next()],
			Place:  places[placeZ.Next()],
			Date:   fmt.Sprintf("%04d-%02d-%02d", year, month, day),
			Camera: cameras[r.IntN(cfg.Cameras)],
			Size:   r.Lognormal(10.5, 1.0, cfg.MinSize, cfg.MaxSize),
		}
	}
	return out
}

// --- document corpus ---

// Document is one generated text document.
type Document struct {
	Name string
	Text string
}

// DocCorpusConfig sizes the corpus generator.
type DocCorpusConfig struct {
	Docs      int
	Vocab     int // distinct words (zipf-distributed usage)
	WordsPer  int // words per document
	RareEvery int // every k-th doc gets a unique marker word (default 10)
}

func (c *DocCorpusConfig) fill() {
	if c.Vocab == 0 {
		c.Vocab = 2000
	}
	if c.WordsPer == 0 {
		c.WordsPer = 120
	}
	if c.RareEvery == 0 {
		c.RareEvery = 10
	}
}

// DocCorpus generates documents whose word frequencies follow a Zipf
// distribution, mimicking natural text; every RareEvery-th document also
// contains a unique marker term ("markerN") for needle queries.
func DocCorpus(seed uint64, cfg DocCorpusConfig) []Document {
	cfg.fill()
	r := NewRng(seed)
	vocab := make([]string, cfg.Vocab)
	for i := range vocab {
		vocab[i] = r.Word(2 + i%3)
	}
	z := r.NewZipf(uint64(cfg.Vocab))
	out := make([]Document, cfg.Docs)
	for i := range out {
		var b strings.Builder
		for w := 0; w < cfg.WordsPer; w++ {
			b.WriteString(vocab[z.Next()])
			b.WriteByte(' ')
		}
		if i%cfg.RareEvery == 0 {
			fmt.Fprintf(&b, "marker%d ", i)
		}
		out[i] = Document{
			Name: fmt.Sprintf("doc_%05d.txt", i),
			Text: b.String(),
		}
	}
	return out
}

// --- path trees ---

// PathTree generates a balanced directory tree of the given depth and
// fanout; Leaves returns the full paths of the leaf files (one per
// bottom-level directory).
type PathTree struct {
	Depth  int
	Fanout int
	Dirs   []string // all directories, parents before children
	Leaves []string // one file path per leaf directory
}

// NewPathTree builds a tree: depth levels of directories, fanout children
// per level, and a single file in each deepest directory.
func NewPathTree(seed uint64, depth, fanout int) *PathTree {
	t := &PathTree{Depth: depth, Fanout: fanout}
	r := NewRng(seed)
	var build func(prefix string, level int)
	build = func(prefix string, level int) {
		if level == depth {
			t.Leaves = append(t.Leaves, prefix+"/file-"+r.Word(2)+".dat")
			return
		}
		for i := 0; i < fanout; i++ {
			dir := fmt.Sprintf("%s/d%d-%s", prefix, i, r.Word(1))
			t.Dirs = append(t.Dirs, dir)
			build(dir, level+1)
		}
	}
	build("", 0)
	return t
}

// DeepPath generates a single chain of depth directories ending in one
// file: the worst case for component-at-a-time resolution.
func DeepPath(seed uint64, depth int) (dirs []string, file string) {
	r := NewRng(seed)
	prefix := ""
	for i := 0; i < depth; i++ {
		prefix = fmt.Sprintf("%s/lvl%02d-%s", prefix, i, r.Word(1))
		dirs = append(dirs, prefix)
	}
	return dirs, prefix + "/target.dat"
}
