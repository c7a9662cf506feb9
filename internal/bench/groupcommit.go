package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SyncCostDevice charges a blocking latency per Sync, modelling the
// flush cost a real device charges a commit (MemDevice syncs are free,
// which hides exactly what group commit amortizes). time.Sleep yields
// the CPU like real blocked I/O, so concurrent writers keep running
// while a sync is in flight. Shared by the E13–E18 runners.
type SyncCostDevice struct {
	blockdev.Device
	Latency time.Duration
}

// Sync implements blockdev.Device.
func (d *SyncCostDevice) Sync() error {
	time.Sleep(d.Latency)
	return d.Device.Sync()
}

// NewSyncCostStore builds a transactional-capable store over a device
// whose syncs cost ~100µs nominal (≈1 ms effective with Go timer
// granularity — disk-flush territory), with a 16 MiB log unless opts
// says otherwise.
func NewSyncCostStore(blocks uint64, opts hfad.Options) (*hfad.Store, error) {
	if opts.WALBlocks == 0 {
		opts.WALBlocks = 4096
	}
	dev := &SyncCostDevice{
		Device:  blockdev.NewMem(blocks, blockdev.DefaultBlockSize),
		Latency: 100 * time.Microsecond,
	}
	return hfad.Create(dev, opts)
}

// RunE13 measures group commit: concurrent writers ingest (create +
// append + tag) against a wal-on volume. The serialized pipeline it
// replaced (full dirty-cache scan, force-at-commit, one sync per
// operation) is retired; its rows are frozen in BENCH_pr3–BENCH_pr8.
func RunE13(s Scale) (*Result, error) {
	ops := pick(s, 240, 2400)
	payload := workload.NewRng(13).Bytes(512)

	tbl := stats.NewTable("E13 — group-commit concurrent ingest (wal on)",
		"writers", "ops", "wall ms", "ops/sec", "syncs/op", "avg group")

	run := func(writers int) error {
		st, err := NewSyncCostStore(devBlocks(s, 1<<15, 1<<16), hfad.Options{
			WALBlocks: 4096,
		})
		if err != nil {
			return err
		}
		defer st.Close()
		var next atomic.Int64
		var wg sync.WaitGroup
		var firstErr atomic.Value
		t0 := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1)
					if i > int64(ops) {
						return
					}
					obj, err := st.CreateObject("w")
					if err == nil {
						err = obj.Append(payload)
					}
					if err == nil {
						err = st.Tag(obj.OID(), hfad.TagUDef, fmt.Sprintf("g:%d", i%10))
					}
					if obj != nil {
						obj.Close()
					}
					if err != nil {
						firstErr.Store(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		if err, ok := firstErr.Load().(error); ok {
			return err
		}
		ws := st.Volume().WAL().Stats()
		avgGroup := 0.0
		if ws.Groups > 0 {
			avgGroup = float64(ws.Commits) / float64(ws.Groups)
		}
		tbl.AddRow(writers, ops, ms(wall),
			float64(ops)/wall.Seconds(),
			float64(ws.Syncs)/float64(ops), avgGroup)
		return nil
	}
	for _, writers := range []int{1, 4, 16} {
		if err := run(writers); err != nil {
			return nil, err
		}
	}

	return &Result{
		ID:     "E13",
		Claim:  "a search-based store must ingest at device speed under concurrency; group commit lets N writers share one log append and one sync instead of serializing a sync each.",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"each op is create+append+tag = 3 transactions; syncs/op ≪ 1 means many transactions rode one device flush",
			"the retired serialized pipeline measured 0.375 syncs/op and 2 108 ops/s at 16 writers (BENCH_pr8.json), coalescing only by accident through a global dirty scan that could declare commits durable that were not",
		},
	}, nil
}

// RunE14 measures the Batch API: per-object ingest cost when create +
// append + tag + index-content commit as one unit versus four individual
// transactions per object.
func RunE14(s Scale) (*Result, error) {
	objects := pick(s, 192, 1920)
	text := []byte(workload.DocCorpus(14, workload.DocCorpusConfig{Docs: 1, WordsPer: 40})[0].Text)

	tbl := stats.NewTable("E14 — batched vs unbatched ingest (wal on)",
		"mode", "objects", "wall ms", "µs/object", "wal commits", "syncs")

	newStore := func() (*hfad.Store, error) {
		return NewSyncCostStore(devBlocks(s, 1<<15, 1<<16), hfad.Options{
			WALBlocks: 4096,
		})
	}

	// Unbatched: four transactions per object.
	st, err := newStore()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < objects; i++ {
		obj, err := st.CreateObject("u")
		if err != nil {
			return nil, err
		}
		if err := obj.Append(text); err != nil {
			return nil, err
		}
		if err := st.Tag(obj.OID(), hfad.TagUDef, fmt.Sprintf("lot:%d", i%50)); err != nil {
			return nil, err
		}
		if err := st.IndexContent(obj.OID()); err != nil {
			return nil, err
		}
		obj.Close()
	}
	wall := time.Since(t0)
	ws := st.Volume().WAL().Stats()
	tbl.AddRow("unbatched", objects, ms(wall),
		us(wall)/float64(objects), ws.Commits, ws.Syncs)
	if err := st.Close(); err != nil {
		return nil, err
	}

	// Batched: groups of 64 objects, one transaction per group.
	st, err = newStore()
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for done := 0; done < objects; {
		n := objects - done
		if n > 64 {
			n = 64
		}
		base := done
		err := st.Batch(func(b *hfad.Batch) error {
			for i := 0; i < n; i++ {
				obj, err := b.CreateObject("u")
				if err != nil {
					return err
				}
				if err := b.Append(obj, text); err != nil {
					obj.Close()
					return err
				}
				if err := b.Tag(obj.OID(), hfad.TagUDef, fmt.Sprintf("lot:%d", (base+i)%50)); err != nil {
					obj.Close()
					return err
				}
				if err := b.IndexContent(obj.OID()); err != nil {
					obj.Close()
					return err
				}
				obj.Close()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		done += n
	}
	wall = time.Since(t0)
	ws = st.Volume().WAL().Stats()
	tbl.AddRow("batched-64", objects, ms(wall),
		us(wall)/float64(objects), ws.Commits, ws.Syncs)
	if err := st.Close(); err != nil {
		return nil, err
	}

	return &Result{
		ID:     "E14",
		Claim:  "tagging on ingest is hFAD's steady-state workload; composing create+append+tag+index into one commit unit amortizes the transaction cost across the whole batch.",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"batched mode also feeds the tag indexes through one multi-put per store (one lock acquisition, sorted descent region)",
		},
	}, nil
}
