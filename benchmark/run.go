package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/hfad"
	"repro/internal/blockdev"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one run of one workload.
type config struct {
	spec    spec
	seed    uint64
	seconds float64 // the measured phase runs spec.rate × seconds operations
	trace   bool
	setups  int    // repetitions of the set-up, the median is reported
	reopens int    // timed reopens of the crash image, the median is reported
	small   bool   // shrink the stand-alone probes (smoke scale)
	outDir  string // where a traced run writes its spans
	// wrap lets a test put a faulty device under the store.
	wrap func(blockdev.Device) blockdev.Device
}

// spansDir is where a traced run leaves its spans, under the directory the
// benchmark is run from (.gitignore names it).
const spansDir = "benchmark/out"

// newConfig is the run the command line asks for. A traced run sets up
// once: setup_s is an end-to-end metric. Scale "smoke" shrinks the data,
// the probes and the measured phase to a fraction of a second.
func newConfig(sp spec, seed uint64, seconds float64, trace bool, scale string) config {
	cfg := config{spec: sp, seed: seed, seconds: seconds, trace: trace, setups: 3, reopens: 5, outDir: spansDir}
	if trace {
		cfg.setups = 1
	}
	if scale == "smoke" {
		cfg.small, cfg.seconds, cfg.setups, cfg.reopens = true, 0.3, 1, 3
		cfg.spec.docs /= 8
		if cfg.spec.pool > cfg.spec.docs {
			cfg.spec.pool = cfg.spec.docs
		}
		cfg.spec.warmOps /= 10
	}
	return cfg
}

// result is what one run measured. A traced run fills layers as well; its
// end-to-end numbers are tainted by the tracing and are not reported.
type result struct {
	endToEnd map[string]metric
	layers   map[string]metric
	classP50 [numClasses]float64 // ms, measured phase

	attempted, failed int64
	failures          []string
	ops               int
	measured          time.Duration // length of the measured phase
	streamHash        uint64
	devReads          int64
}

func (r *result) correct() bool { return r.failed == 0 }

// release frees an off-heap mapping when its user returns, adding a
// failure to unmap to the user's error.
func release(m interface{ free() error }, err *error) {
	*err = errors.Join(*err, m.free())
}

// loadCache is the cache the store is loaded with; the measured phase
// reopens it with the workload's own.
const loadCache = 8192

func storeOptions(cachePages int) hfad.Options {
	// One WAL sync per commit, on both sides of any comparison.
	return hfad.Options{Transactional: true, WALBlocks: walBlocks, CachePages: cachePages}
}

// setUp formats a device, loads the workload's documents (syncing at fixed
// document counts, so the image repeats), closes the store, reopens it
// with the workload's cache and warms it with operations from a stream of
// its own.
func setUp(cfg *config, m *model) (*device, *hfad.Store, *executor, error) {
	dev, err := newDevice(cfg.spec.devBlocks)
	if err != nil {
		return nil, nil, nil, err
	}
	var under blockdev.Device = dev
	if cfg.wrap != nil {
		under = cfg.wrap(dev)
	}
	fail := func(err error) (*device, *hfad.Store, *executor, error) {
		return nil, nil, nil, errors.Join(err, dev.free())
	}
	st, err := hfad.Create(under, storeOptions(loadCache))
	if err != nil {
		return fail(fmt.Errorf("create: %w", err))
	}
	m.reset()
	x := newExecutor(st, m, cfg.spec.batch)
	for m.count() < cfg.spec.docs {
		n := loadBatch
		if rest := cfg.spec.docs - m.count(); rest < n {
			n = rest
		}
		if err := x.ingest(n); err != nil {
			return fail(fmt.Errorf("load: %w", err))
		}
		if m.count()%loadSync == 0 {
			if err := st.Sync(); err != nil {
				return fail(fmt.Errorf("load: %w", err))
			}
		}
	}
	if err := st.Close(); err != nil {
		return fail(fmt.Errorf("close after load: %w", err))
	}
	st, err = hfad.Open(under, storeOptions(cfg.spec.cachePages))
	if err != nil {
		return fail(fmt.Errorf("open after load: %w", err))
	}
	x.st = st
	warm := newGen(cfg.seed^0x3a9d, cfg.spec.docs, cfg.spec.mix)
	for i := 0; i < cfg.spec.warmOps; i++ {
		x.do(warm.next())
	}
	return dev, st, x, nil
}

// phase is the raw material of one measured phase.
type phase struct {
	lat     []float64 // ns per operation
	class   []opClass
	heapMB  []float64 // live heap, sampled through the phase
	elapsed time.Duration

	// A traced phase is cut into slices, one in tracedEvery of them traced.
	tracedNS, untracedNS   int64
	tracedOps, untracedOps int
}

const (
	traceSlice = 100 * time.Millisecond
	// One slice in four is traced: enough spans for every median, and few
	// enough to keep in memory (see maxSpans).
	tracedEvery = 4
	heapEvery   = 5 * time.Millisecond
	heapMetric  = "/gc/heap/live:bytes"
)

// measure runs the closed loop: one client, the next operation issued when
// the previous one returned. The operation count is fixed, so everything
// counted repeats for a seed and the store ends at the size the rest of
// the run is budgeted for; the clock ends the phase early only on a host more
// than a quarter slower than the one the rates were chosen on, to keep a
// run inside the time the driver allows. With a recorder,
// every fourth slice of the phase is traced, so that traced and untraced
// operations see the same store in the same state; the difference is the
// tracing overhead.
func measure(cfg *config, x *executor, dev *device, g *gen, rec *recorder) *phase {
	heap := []metrics.Sample{{Name: heapMetric}}
	ops := int(cfg.spec.rate * cfg.seconds)
	limit := time.Duration(1.25 * cfg.seconds * float64(time.Second))

	p := &phase{lat: make([]float64, 0, ops), class: make([]opClass, 0, ops)}
	start := time.Now()
	sliceStart, lastHeap, sliceOps, slices := start, start, 0, 0
	traced := false
	endSlice := func(now time.Time) {
		if traced {
			p.tracedNS += int64(now.Sub(sliceStart))
			p.tracedOps += sliceOps
		} else {
			p.untracedNS += int64(now.Sub(sliceStart))
			p.untracedOps += sliceOps
		}
		sliceStart, sliceOps = now, 0
	}
	t0 := start
	for len(p.lat) < ops && t0.Sub(start) < limit {
		o := g.next()
		t0 = time.Now()
		if rec != nil && t0.Sub(sliceStart) >= traceSlice {
			endSlice(t0)
			slices++
			traced = slices%tracedEvery == 0
			if traced {
				setTracing(x, dev, rec)
			} else {
				setTracing(x, dev, nil)
			}
		}
		x.do(o)
		t1 := time.Now()
		sliceOps++
		p.lat = append(p.lat, float64(t1.Sub(t0)))
		p.class = append(p.class, o.class)
		if t1.Sub(lastHeap) >= heapEvery {
			lastHeap = t1
			metrics.Read(heap)
			p.heapMB = append(p.heapMB, float64(heap[0].Value.Uint64())/(1<<20))
		}
	}
	end := time.Now()
	p.elapsed = end.Sub(start)
	endSlice(end)
	setTracing(x, dev, nil)
	return p
}

// setTracing attaches the recorder to the client and the device, or with
// nil detaches it.
func setTracing(x *executor, dev *device, rec *recorder) {
	x.rec = rec
	dev.rec.Store(rec)
}

// run executes one workload once: set-up, measured phase, a fixed tail of
// operations after a checkpoint, power loss, timed reopens of the crash
// image, readback of every acknowledged write, and fsck.
func run(cfg config) (res *result, err error) {
	sp := &cfg.spec
	m := newModel(cfg.seed, sp)

	var (
		dev     *device
		st      *hfad.Store
		x       *executor
		setupNS []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if dev != nil {
			if err := errors.Join(st.Close(), dev.free()); err != nil {
				return nil, fmt.Errorf("discard set-up: %w", err)
			}
		}
		t0 := time.Now()
		if dev, st, x, err = setUp(&cfg, m); err != nil {
			return nil, err
		}
		setupNS = append(setupNS, float64(time.Since(t0)))
	}
	defer release(dev, &err)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	runtime.GC()
	before := st.Stats()
	r0, w0, s0 := dev.reads.Load(), dev.writes.Load(), dev.syncs.Load()
	g := newGen(cfg.seed, sp.docs, sp.mix)
	p := measure(&cfg, x, dev, g, rec)

	after := st.Stats()
	reads, writes, syncs := dev.reads.Load()-r0, dev.writes.Load()-w0, dev.syncs.Load()-s0
	ops := float64(len(p.lat))

	res = &result{ops: len(p.lat), measured: p.elapsed, streamHash: g.hash, devReads: reads}
	byClass := make([][]float64, numClasses)
	for i, c := range p.class {
		byClass[c] = append(byClass[c], p.lat[i])
	}
	for c := range byClass {
		res.classP50[c] = median(byClass[c]) / 1e6
	}
	res.endToEnd = map[string]metric{
		"ops_per_s":                  {ops / p.elapsed.Seconds(), "1/s"},
		"p50_ms":                     {median(p.lat) / 1e6, "ms"},
		"p99_ms":                     {quantile(p.lat, 0.99) / 1e6, "ms"},
		"dev_model_ms_per_op":        {deviceModelMS(reads, writes, syncs) / ops, "ms"},
		"stored_bytes_per_user_byte": {float64(after.Alloc.UsedBlocks) * blockSize / float64(m.userBytes), "B/B"},
		"setup_s":                    {median(setupNS) / 1e9, "s"},
		"go_heap_mb":                 {median(p.heapMB), "MB"},
	}

	// The tail: the same operations of every class on every workload, a
	// checkpoint, then the same writes, so that recovery always has the
	// same log to replay.
	setTracing(x, dev, rec)
	tailStart := time.Now()
	tail := newGen(cfg.seed^0x7a11, sp.docs, tailMix)
	for i := 0; i < tailOps*len(tail.slots); i++ {
		x.do(tail.next())
	}
	if rec != nil {
		rec.traced = p.tracedNS + int64(time.Since(tailStart))
		setTracing(x, dev, nil)
	}
	if err := st.Sync(); err != nil {
		return nil, fmt.Errorf("sync before the crash: %w", err)
	}
	tail = newGen(cfg.seed^0x7a12, sp.docs, recoveryMix)
	for i := 0; i < tailOps*len(tail.slots); i++ {
		x.do(tail.next())
	}
	ftSegments := st.Volume().Fulltext().Inner().Stats().Segments
	fragmentation := st.Stats().Alloc.Fragmentation()

	rp, err := crashAndReopen(&cfg, dev, st, x)
	if err != nil {
		return nil, err
	}
	res.endToEnd["reopen_s"] = metric{rp.reopenS, "s"}
	res.attempted, res.failed, res.failures = x.attempted, x.failed, x.failures

	if rec == nil {
		return res, nil
	}
	rec.resolve()
	if err := rec.dump(filepath.Join(cfg.outDir, "spans-"+sp.name+".tsv")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.layers = map[string]metric{}
	set := func(name string, v float64, unit string) { res.layers[name] = metric{v, unit} }
	per := func(n int64, d float64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / d
	}

	set("blockdev.reads_per_op", per(reads, ops), "count")
	set("blockdev.writes_per_op", per(writes, ops), "count")
	set("blockdev.syncs_per_op", per(syncs, ops), "count")
	set("blockdev.write_bytes_per_user_byte", per(dev.writes.Load()*blockSize, float64(m.userBytes)), "B/B")
	set("blockdev.time_share", per(rec.deviceNS(), float64(rec.traced)), "ratio")

	c0, c1 := before.Cache, after.Cache
	set("pager.hit_rate", per(c1.Hits-c0.Hits, float64(c1.Hits-c0.Hits+c1.Misses-c0.Misses)), "ratio")
	set("pager.misses_per_op", per(c1.Misses-c0.Misses, ops), "count")
	set("pager.evictions_per_op", per(c1.Evictions-c0.Evictions, ops), "count")
	set("pager.writebacks_per_op", per(c1.Writebacks-c0.Writebacks, ops), "count")
	set("pager.steals_per_op", per(c1.Steals-c0.Steals, ops), "count")

	l0, l1 := before.WAL, after.WAL
	commits := l1.Commits - l0.Commits
	set("wal.bytes_per_op", per(l1.BytesLogged-l0.BytesLogged, ops), "B")
	set("wal.syncs_per_commit", per(l1.Syncs-l0.Syncs, float64(commits)), "count")
	set("wal.commits_per_group", per(commits, float64(l1.Groups-l0.Groups)), "count")
	set("wal.records_per_commit", per(l1.PagesLogged-l0.PagesLogged, float64(commits)), "count")
	set("wal.checkpoints", float64(l1.Checkpoints-l0.Checkpoints), "count")
	set("wal.chunks", float64(l1.Chunks-l0.Chunks), "count")

	commit, stage := rec.batchSplit()
	set("core.batch_commit_ms", median(commit)/1e6, "ms")
	var staged float64
	for _, ns := range stage {
		staged += ns
	}
	set("core.batch_stage_us_per_doc", per(int64(staged), float64(len(rec.durations(spCreate))))/1e3, "us")
	set("core.find_self_us", rec.medianUS(spProbeFind)-rec.medianUS(spIndexDrain), "us")
	set("core.append_us", rec.medianUS(spAppend), "us")
	set("core.tag_us", rec.medianUS(spTag), "us")
	set("core.names_us", rec.medianUS(spNames), "us")
	set("core.recover_replayed_records", float64(rp.replayed), "count")
	set("core.reopen_clean_ms", rp.cleanMS, "ms")
	set("core.check_s", rp.checkS, "s")
	set("core.p999_ms", quantile(p.lat, 0.999)/1e6, "ms")

	set("index.lookup_us", rec.medianUS(spIndexDrain), "us")
	set("index.seeks_per_result", per(x.seeks, float64(x.results)), "count")
	set("index.emits_per_result", per(x.emits, float64(x.results)), "count")
	set("fulltext.add_us_per_doc", rec.medianUS(spIndexContent), "us")
	set("fulltext.search_us", rec.medianUS(spSearch), "us")
	set("fulltext.segments", float64(ftSegments), "count")
	set("osd.open_us", rec.medianUS(spOpen), "us")
	set("osd.stat_us", rec.medianUS(spStat), "us")
	set("osd.create_us", rec.medianUS(spCreate), "us")
	set("extent.extents_per_object", rp.extentsPerObject, "count")
	set("buddy.fragmentation", fragmentation, "ratio")

	// Tracing overhead: what a traced slice loses against the untraced
	// slices around it.
	tracedRate := per(int64(p.tracedOps), float64(p.tracedNS))
	untracedRate := per(int64(p.untracedOps), float64(p.untracedNS))
	overhead := 0.0
	if untracedRate > 0 {
		overhead = 1 - tracedRate/untracedRate
	}
	set("trace.overhead_frac", overhead, "ratio")

	if err := probes(cfg.seed, cfg.small, set); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return res, nil
}

type reopened struct {
	reopenS          float64
	cleanMS, checkS  float64
	replayed         int64
	extentsPerObject float64
}

// crashAndReopen cuts the power, recovers the crash image cfg.reopens times
// from the same bytes and reports the median, then holds the last
// recovered store to the model and to fsck.
func crashAndReopen(cfg *config, dev *device, st *hfad.Store, x *executor) (*reopened, error) {
	dev.crash()
	// Close fails on the dead device, but it stops the crashed store's
	// checkpointer. With that and a collection before each reopen, all of
	// them start alike.
	if err := st.Close(); err == nil {
		return nil, errors.New("the crashed store closed cleanly: its device did not fail")
	}

	opts := storeOptions(cfg.spec.cachePages)
	var (
		times []float64
		last  *hfad.Store
		ov    *overlay
	)
	for i := 0; i < cfg.reopens; i++ {
		if last != nil {
			if err := last.Close(); err != nil {
				return nil, fmt.Errorf("close reopened store: %w", err)
			}
			last = nil
		}
		ov = newOverlay(dev)
		runtime.GC()
		t0 := time.Now()
		var err error
		if last, err = hfad.Open(ov, opts); err != nil {
			return nil, fmt.Errorf("reopen after crash: %w", err)
		}
		times = append(times, float64(time.Since(t0)))
	}
	rp := &reopened{reopenS: median(times) / 1e9, replayed: last.Stats().WAL.PagesReplayed}

	x.st = last
	rp.extentsPerObject = x.verify()
	x.attempted++
	t0 := time.Now()
	rep, err := last.Check()
	rp.checkS = time.Since(t0).Seconds()
	switch {
	case err != nil:
		x.failf("fsck: %v", err)
	case !rep.Ok():
		x.failf("fsck: %d problems, first: %s", len(rep.Problems), rep.Problems[0])
	}

	if err := last.Close(); err != nil {
		return nil, fmt.Errorf("close reopened store: %w", err)
	}
	t0 = time.Now()
	clean, err := hfad.Open(ov, opts)
	if err != nil {
		return nil, fmt.Errorf("reopen after clean close: %w", err)
	}
	rp.cleanMS = float64(time.Since(t0)) / 1e6
	if err := clean.Close(); err != nil {
		return nil, fmt.Errorf("close reopened store: %w", err)
	}
	return rp, nil
}
