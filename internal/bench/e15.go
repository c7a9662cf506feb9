package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/hfad"
	"repro/internal/stats"
)

// RunE15 measures write-ahead-log amplification: bytes logged per small
// naming operation under concurrent writers. Each op tags an existing
// object with a short value — a ~64-byte logical edit — and physiological
// logging logs a typed record per edit, so the bytes do not grow with
// the number of writers sharing the index leaves. The page-image
// pipeline it replaced is retired; its rows are frozen in BENCH_pr4.
func RunE15(s Scale) (*Result, error) {
	ops := pick(s, 240, 2400)

	tbl := stats.NewTable("E15 — log bytes per small naming op, physiological redo",
		"writers", "ops", "bytes/op", "records/op", "ops/sec")

	var bytes16 float64 // bytes/op at 16 writers
	run := func(writers int) error {
		st, err := NewSyncCostStore(devBlocks(s, 1<<15, 1<<16), hfad.Options{
			WALBlocks:   4096,
			IndexShards: 1, // one UDEF tree: writers genuinely share pages
		})
		if err != nil {
			return err
		}
		defer st.Close()
		// The objects being tagged exist before the measured window.
		oids := make([]hfad.OID, 16)
		for i := range oids {
			obj, err := st.CreateObject("w")
			if err != nil {
				return err
			}
			oids[i] = obj.OID()
			obj.Close()
		}
		ws0 := st.Volume().WAL().Stats()
		var next atomic.Int64
		var wg sync.WaitGroup
		var firstErr atomic.Value
		t0 := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := next.Add(1)
					if i > int64(ops) {
						return
					}
					if err := st.Tag(oids[w%len(oids)], hfad.TagUDef, fmt.Sprintf("v:%d", i)); err != nil {
						firstErr.Store(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		wall := time.Since(t0)
		if err, ok := firstErr.Load().(error); ok {
			return err
		}
		ws := st.Volume().WAL().Stats()
		bytesPerOp := float64(ws.BytesLogged-ws0.BytesLogged) / float64(ops)
		if writers == 16 {
			bytes16 = bytesPerOp
		}
		tbl.AddRow(writers, ops, bytesPerOp,
			float64(ws.PagesLogged-ws0.PagesLogged)/float64(ops),
			float64(ops)/wall.Seconds())
		return nil
	}
	for _, writers := range []int{1, 16} {
		if err := run(writers); err != nil {
			return nil, err
		}
	}

	return &Result{
		ID:     "E15",
		Claim:  "physiological redo records cut the log bytes a small edit pays from whole shared pages to the edit itself, so log bandwidth no longer scales with writer count.",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"each op is one Tag (forward index put + reverse index put), value ~8 bytes — the paper-store's hot naming edit",
			fmt.Sprintf("16-writer bytes/op: %.0f physiological vs 16 617.8 under the retired page-image pipeline (BENCH_pr4.json)", bytes16),
		},
	}, nil
}
