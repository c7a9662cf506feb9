package bench

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RunE17 is the scale-tier server exhibit: an hfadd instance over a
// sync-cost device, driven across loopback HTTP by ≥16 concurrent
// connections. Phase 1 bulk-loads ≥100k objects through the batch
// endpoint; phase 2 runs a zipfian read/write/query mix through the
// individual endpoints. The claim under test is the fan-in design:
// cross-connection coalescing + WAL group commit keep server-side
// device syncs per write operation well below one, while admission
// control bounds what overload can queue.
func RunE17(s Scale) (*Result, error) {
	objects := pick(s, 100_000, 200_000)
	mixedOps := pick(s, 20_000, 80_000)
	conns := pick(s, 16, 32)
	const batchItems = 500
	payload := workload.NewRng(17).Bytes(96)

	// The volume lives in a sparse temp file, not a MemDevice: ~100k
	// objects want a couple of GiB of address space, and a file-backed
	// device gets that from the OS page cache instead of resident RAM —
	// exactly how cmd/hfadd serves a real volume.
	img, err := os.CreateTemp("", "hfad-e17-*.img")
	if err != nil {
		return nil, err
	}
	img.Close()
	defer os.Remove(img.Name())
	fdev, err := blockdev.CreateFile(img.Name(), devBlocks(s, 1<<19, 1<<20), 0)
	if err != nil {
		return nil, err
	}
	st, err := hfad.Create(&SyncCostDevice{Device: fdev, Latency: 100 * time.Microsecond}, hfad.Options{
		WALBlocks:  8192,
		CachePages: 8192,
	})
	if err != nil {
		return nil, err
	}
	srv := server.New(st, server.Options{
		MaxInFlight:    2 * conns,
		QueueDepth:     4096,
		CoalesceWindow: 256,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
	}
	defer shutdown()
	addr := ln.Addr().String()

	// Each driver goroutine gets its own client (own TCP connections),
	// so the server genuinely sees `conns` concurrent connections.
	clients := make([]*server.Client, conns)
	for i := range clients {
		clients[i] = server.NewClient(addr)
	}

	// --- phase 1: bulk load through /v1/batch ---
	var loaded atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	failed := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w]
			for {
				base := loaded.Add(batchItems) - batchItems
				if base >= int64(objects) {
					return
				}
				n := int64(batchItems)
				if base+n > int64(objects) {
					n = int64(objects) - base
				}
				items := make([]server.BatchItem, n)
				for i := range items {
					id := base + int64(i)
					items[i] = server.BatchItem{Create: &server.CreateReq{
						Owner: "e17",
						Data:  payload,
						Tags: []server.TagPair{
							{Tag: hfad.TagUDef, Value: fmt.Sprintf("g:%d", id%1000)},
							{Tag: hfad.TagUDef, Value: "tier:scale"},
						},
					}}
				}
				resp, err := c.Batch(&server.BatchReq{Items: items})
				if err != nil {
					fail(fmt.Errorf("load batch at %d: %w", base, err))
					return
				}
				for _, r := range resp.Results {
					if r.Err != "" {
						fail(fmt.Errorf("load item: %s", r.Err))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := failed(); err != nil {
		return nil, err
	}
	loadWall := time.Since(t0)
	loadStats := srv.Metrics()

	// The preload's OID space: OIDs allocate sequentially, so the loaded
	// objects are the dense range [baseOID, baseOID+objects). Every
	// object carries tier:scale; its first page yields the true base.
	first, err := clients[0].Find(&server.FindReq{
		Pairs: []server.TagPair{{Tag: hfad.TagUDef, Value: "tier:scale"}},
		Page:  server.PageSpec{Limit: 1},
	})
	if err != nil {
		return nil, err
	}
	if len(first.OIDs) == 0 {
		return nil, fmt.Errorf("E17: preload left no objects behind")
	}
	baseOID := first.OIDs[0]

	// --- phase 2: zipfian mixed read/write/query load ---
	var issued atomic.Int64
	var reads, writes, queries atomic.Int64
	t1 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w]
			mix := workload.NewMix(uint64(1700+w), uint64(objects), workload.MixConfig{})
			for issued.Add(1) <= int64(mixedOps) {
				op, rank := mix.Next()
				oid := baseOID + rank
				switch op {
				case workload.OpRead:
					if _, err := c.Read(oid, 0, 64); err != nil {
						fail(fmt.Errorf("read oid %d: %w", oid, err))
						return
					}
					reads.Add(1)
				case workload.OpWrite:
					if _, err := c.Append(oid, payload[:32]); err != nil {
						fail(fmt.Errorf("append oid %d: %w", oid, err))
						return
					}
					writes.Add(1)
				case workload.OpQuery:
					_, err := c.Find(&server.FindReq{
						Pairs: []server.TagPair{{Tag: hfad.TagUDef, Value: fmt.Sprintf("g:%d", rank%1000)}},
						Page:  server.PageSpec{Limit: 20},
					})
					if err != nil {
						fail(fmt.Errorf("query g:%d: %w", rank%1000, err))
						return
					}
					queries.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := failed(); err != nil {
		return nil, err
	}
	mixWall := time.Since(t1)
	m := srv.Metrics()

	// Phase deltas: the mixed phase's write ops and syncs.
	mixWriteOps := m.IngestOps - loadStats.IngestOps
	mixSyncs, mixGroups, mixCommits := int64(0), int64(0), int64(0)
	if m.WAL != nil && loadStats.WAL != nil {
		mixSyncs = m.WAL.Syncs - loadStats.WAL.Syncs
		mixGroups = m.WAL.Groups - loadStats.WAL.Groups
		mixCommits = m.WAL.Commits - loadStats.WAL.Commits
	}
	syncsPerWrite := 0.0
	if mixWriteOps > 0 {
		syncsPerWrite = float64(mixSyncs) / float64(mixWriteOps)
	}
	avgGroup := 0.0
	if mixGroups > 0 {
		avgGroup = float64(mixCommits) / float64(mixGroups)
	}

	phases := stats.NewTable("E17 — hfadd server at the scale tier",
		"phase", "conns", "ops", "wall ms", "ops/sec")
	phases.AddRow("bulk load (batch)", conns, objects, ms(loadWall),
		float64(objects)/loadWall.Seconds())
	phases.AddRow("zipfian mix", conns, mixedOps, ms(mixWall),
		float64(mixedOps)/mixWall.Seconds())

	fanin := stats.NewTable("E17 — write fan-in (mixed phase)",
		"write ops", "txns", "avg coalesce", "wal syncs", "syncs/write", "avg group")
	mixBatches := m.IngestBatches - loadStats.IngestBatches
	avgCoalesce := 0.0
	if mixBatches > 0 {
		avgCoalesce = float64(mixWriteOps) / float64(mixBatches)
	}
	fanin.AddRow(mixWriteOps, mixBatches, avgCoalesce, mixSyncs, syncsPerWrite, avgGroup)

	lat := stats.NewTable("E17 — server-side request latency",
		"class", "count", "mean µs", "p50 µs", "p99 µs")
	for _, class := range []string{"read", "write", "query"} {
		l := m.Latency[class]
		lat.AddRow(class, l.Count, l.MeanNS/1000, l.P50NS/1000, l.P99NS/1000)
	}

	res := &Result{
		ID:     "E17",
		Claim:  "a server front end preserves group-commit economics: N connections' writes reach the device as shared transactions, syncs/write << 1",
		Tables: []*stats.Table{phases, fanin, lat},
		Notes: []string{
			fmt.Sprintf("mix: %d reads / %d writes / %d queries (zipf s=1.07 over %d objects)",
				reads.Load(), writes.Load(), queries.Load(), objects),
			fmt.Sprintf("admission: %d admitted, %d rejected in-flight, %d rejected queue",
				m.Admitted, m.RejectedInflight, m.RejectedQueue),
			fmt.Sprintf("cache hit rate %.3f; %d objects served from one volume", m.Cache.HitRate, m.Objects.Objects),
		},
	}
	if syncsPerWrite >= 1 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"WARNING: syncs/write = %.3f (expected << 1; fan-in not engaging)", syncsPerWrite))
	}
	return res, nil
}
