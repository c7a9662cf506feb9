package server

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/stats"
)

// Metrics is a point-in-time snapshot of everything the server and the
// store underneath it count. It backs both /debug/stats (this struct as
// JSON) and /metrics (the same numbers in Prometheus text format).
type Metrics struct {
	// Admission.
	Admitted         int64 `json:"admitted"`
	RejectedInflight int64 `json:"rejected_inflight"`
	// Deprecated: there is no write queue; always 0.
	RejectedQueue int64 `json:"rejected_queue"`

	// Deprecated: each write is its own transaction, so IngestBatches
	// and IngestOps both count Create, Append, Tag and Batch calls.
	IngestBatches int64 `json:"ingest_batches"`
	// Deprecated: equal to IngestBatches.
	IngestOps int64 `json:"ingest_ops"`

	// Request latency per class, nanoseconds.
	Latency map[string]LatencySummary `json:"latency_ns"`

	// Store layers.
	Objects ObjectMetrics `json:"objects"`
	Cache   CacheMetrics  `json:"cache"`
	WAL     *WALMetrics   `json:"wal,omitempty"`
	Alloc   AllocMetrics  `json:"alloc"`

	// Fault state (see /healthz).
	Health HealthMetrics `json:"health"`
}

// HealthMetrics is the store's degraded/fault state.
type HealthMetrics struct {
	Degraded           bool  `json:"degraded"`
	WALWedged          bool  `json:"wal_wedged"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	CorruptReads       int64 `json:"corrupt_reads"`
}

// LatencySummary condenses one class's histogram.
type LatencySummary struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
}

// ObjectMetrics is the OSD operation counters.
type ObjectMetrics struct {
	Objects      uint64 `json:"objects"`
	Creates      int64  `json:"creates"`
	Deletes      int64  `json:"deletes"`
	Reads        int64  `json:"reads"`
	Writes       int64  `json:"writes"`
	Inserts      int64  `json:"inserts"`
	DeleteRanges int64  `json:"delete_ranges"`
	Commits      int64  `json:"commits"`
}

// CacheMetrics is the buffer-cache counters plus the derived hit rate.
type CacheMetrics struct {
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	HitRate    float64 `json:"hit_rate"`
	Evictions  int64   `json:"evictions"`
	Writebacks int64   `json:"writebacks"`
	Cached     int     `json:"cached"`
	Dirty      int     `json:"dirty"`
}

// WALMetrics is the log counters plus derived group-commit ratios.
type WALMetrics struct {
	Commits     int64   `json:"commits"`
	Groups      int64   `json:"groups"`
	Syncs       int64   `json:"syncs"`
	PagesLogged int64   `json:"pages_logged"`
	BytesLogged int64   `json:"bytes_logged"`
	BlockWrites int64   `json:"block_writes"`
	Checkpoints int64   `json:"checkpoints"`
	AvgGroup    float64 `json:"avg_group"` // commits per group
}

// AllocMetrics is the block-allocator counters. StrandedBlocks is the
// free space, in blocks, that waits inside used blocks: the freed slots
// of packed small objects, of no use until their block's other slots
// are freed too (buddy.Stats.Stranded).
type AllocMetrics struct {
	FreeBlocks     uint64  `json:"free_blocks"`
	UsedBlocks     uint64  `json:"used_blocks"`
	StrandedBlocks float64 `json:"stranded_blocks"`
	Frag           float64 `json:"fragmentation"`
}

// Metrics snapshots the server and its store. Safe to call concurrently
// with any operation — every source is atomic or mutex-guarded.
func (s *Server) Metrics() Metrics {
	writes := s.writes.Load()
	m := Metrics{
		Admitted:         s.admitted.Load(),
		RejectedInflight: s.rejectedInflight.Load(),
		IngestBatches:    writes,
		IngestOps:        writes,
		Latency:          make(map[string]LatencySummary, len(s.latency)),
	}
	for class, h := range s.latency {
		hs := h.Snapshot()
		m.Latency[class] = LatencySummary{
			Count:  hs.Count,
			MeanNS: int64(hs.Mean()),
			P50NS:  hs.Quantile(0.50),
			P99NS:  hs.Quantile(0.99),
		}
	}

	ss := s.st.Stats()
	m.Objects = ObjectMetrics{
		Objects:      ss.Objects.Objects,
		Creates:      ss.Objects.Creates,
		Deletes:      ss.Objects.Deletes,
		Reads:        ss.Objects.Reads,
		Writes:       ss.Objects.Writes,
		Inserts:      ss.Objects.Inserts,
		DeleteRanges: ss.Objects.DeleteRanges,
		Commits:      ss.Objects.Commits,
	}
	c := ss.Cache
	m.Cache = CacheMetrics{
		Hits: c.Hits, Misses: c.Misses,
		Evictions: c.Evictions, Writebacks: c.Writebacks,
		Cached: c.Cached, Dirty: c.Dirty,
	}
	if total := c.Hits + c.Misses; total > 0 {
		m.Cache.HitRate = float64(c.Hits) / float64(total)
	}
	m.Alloc = AllocMetrics{
		FreeBlocks:     ss.Alloc.FreeBlocks,
		UsedBlocks:     ss.Alloc.UsedBlocks,
		StrandedBlocks: ss.Alloc.StrandedBlocks(),
		Frag:           ss.Alloc.Fragmentation(),
	}
	h := s.st.Health()
	m.Health = HealthMetrics{
		Degraded:           h.Degraded,
		WALWedged:          h.WALWedged,
		CheckpointFailures: h.CheckpointFailures,
		CorruptReads:       h.CorruptReads,
	}
	if w := ss.WAL; w != nil {
		wm := &WALMetrics{
			Commits: w.Commits, Groups: w.Groups, Syncs: w.Syncs,
			PagesLogged: w.PagesLogged, BytesLogged: w.BytesLogged,
			BlockWrites: w.BlockWrites, Checkpoints: w.Checkpoints,
		}
		if w.Groups > 0 {
			wm.AvgGroup = float64(w.Commits) / float64(w.Groups)
		}
		m.WAL = wm
	}
	return m
}

func (s *Server) handleDebugStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleMetrics renders the snapshot as Prometheus text exposition
// (counters and gauges only; histograms export as per-class summaries).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	var b strings.Builder
	c := func(name string, v int64) {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	g := func(name string, v float64) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", name, name, v)
	}
	c("hfadd_admitted_total", m.Admitted)
	c("hfadd_rejected_inflight_total", m.RejectedInflight)
	c("hfadd_ingest_batches_total", m.IngestBatches)
	c("hfadd_ingest_ops_total", m.IngestOps)

	for _, class := range stats.SortedKeys(latencyCounts(m)) {
		l := m.Latency[class]
		fmt.Fprintf(&b, "hfadd_request_latency_ns{class=%q,stat=\"count\"} %d\n", class, l.Count)
		fmt.Fprintf(&b, "hfadd_request_latency_ns{class=%q,stat=\"mean\"} %d\n", class, l.MeanNS)
		fmt.Fprintf(&b, "hfadd_request_latency_ns{class=%q,stat=\"p50\"} %d\n", class, l.P50NS)
		fmt.Fprintf(&b, "hfadd_request_latency_ns{class=%q,stat=\"p99\"} %d\n", class, l.P99NS)
	}

	g("hfadd_objects", float64(m.Objects.Objects))
	c("hfadd_osd_creates_total", m.Objects.Creates)
	c("hfadd_osd_deletes_total", m.Objects.Deletes)
	c("hfadd_osd_reads_total", m.Objects.Reads)
	c("hfadd_osd_writes_total", m.Objects.Writes)
	c("hfadd_osd_inserts_total", m.Objects.Inserts)
	c("hfadd_osd_delete_ranges_total", m.Objects.DeleteRanges)
	c("hfadd_osd_commits_total", m.Objects.Commits)

	c("hfadd_cache_hits_total", m.Cache.Hits)
	c("hfadd_cache_misses_total", m.Cache.Misses)
	g("hfadd_cache_hit_rate", m.Cache.HitRate)
	c("hfadd_cache_evictions_total", m.Cache.Evictions)
	c("hfadd_cache_writebacks_total", m.Cache.Writebacks)

	g("hfadd_alloc_free_blocks", float64(m.Alloc.FreeBlocks))
	g("hfadd_alloc_used_blocks", float64(m.Alloc.UsedBlocks))
	g("hfadd_alloc_stranded_blocks", m.Alloc.StrandedBlocks)
	g("hfadd_alloc_fragmentation", m.Alloc.Frag)

	if w := m.WAL; w != nil {
		c("hfadd_wal_commits_total", w.Commits)
		c("hfadd_wal_groups_total", w.Groups)
		c("hfadd_wal_syncs_total", w.Syncs)
		c("hfadd_wal_pages_logged_total", w.PagesLogged)
		c("hfadd_wal_bytes_logged_total", w.BytesLogged)
		c("hfadd_wal_block_writes_total", w.BlockWrites)
		c("hfadd_wal_checkpoints_total", w.Checkpoints)
		g("hfadd_wal_avg_group", w.AvgGroup)
	}

	b01 := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	g("hfadd_degraded", b01(m.Health.Degraded))
	g("hfadd_wal_wedged", b01(m.Health.WALWedged))
	c("hfadd_checkpoint_failures_total", m.Health.CheckpointFailures)
	c("hfadd_corrupt_reads_total", m.Health.CorruptReads)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, b.String())
}

func latencyCounts(m Metrics) map[string]int64 {
	out := make(map[string]int64, len(m.Latency))
	for k, v := range m.Latency {
		out[k] = v.Count
	}
	return out
}
