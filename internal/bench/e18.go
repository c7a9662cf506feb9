package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/hfad"
	"repro/internal/stats"
)

// RunE18 measures the steal pager: a single Store.Batch whose dirty
// *page* set is a multiple of the cache capacity. Each created object
// dirties its own extent-header page plus shared metadata pages, so a
// batch creating N objects dirties ≥ N cached pages. Before PR 7 the
// pager could not evict an uncommitted dirty page, so a batch this size
// tripped the cache-capacity ErrFull fallback — flush the whole cache
// mid-transaction and hope. With steal, the pager chunk-flushes the
// transaction's records (WAL-before-data) and evicts as it goes; the
// batch's dirty set is bounded by the log, not the cache, and the final
// commit just seals the chunk chain. The exhibit is the steals /
// chunk-flushes columns doing the work while checkpoint fallbacks stay
// at zero.
func RunE18(s Scale) (*Result, error) {
	cachePages := pick(s, 128, 512)
	multiples := []int{1, 2, 4}
	if s == Full {
		multiples = []int{1, 4, 8}
	}

	tbl := stats.NewTable(fmt.Sprintf("E18 — one Batch vs a %d-page cache (steal on)", cachePages),
		"dirty multiple", "objects", "wall ms", "steals", "chunk flushes", "ckpt fallbacks")

	payload := []byte("steal pager exhibit: uncommitted dirty pages evict behind the log")
	for _, mult := range multiples {
		st, err := NewSyncCostStore(devBlocks(s, 1<<15, 1<<17), hfad.Options{
			WALBlocks:  16384,
			CachePages: cachePages,
		})
		if err != nil {
			return nil, err
		}
		objects := mult * cachePages
		cs0 := st.Volume().Pager().Stats()
		oids := make([]hfad.OID, 0, objects)
		t0 := time.Now()
		err = st.Batch(func(b *hfad.Batch) error {
			for i := 0; i < objects; i++ {
				obj, err := b.CreateObject("u")
				if err != nil {
					return err
				}
				oids = append(oids, obj.OID())
				if err := b.Append(obj, payload); err != nil {
					obj.Close()
					return err
				}
				obj.Close()
				if err := b.Tag(oids[i], hfad.TagUDef, fmt.Sprintf("lot:%d", i%50)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			st.Close()
			return nil, err
		}
		wall := time.Since(t0)
		cs := st.Volume().Pager().Stats()
		fallbacks := st.Volume().CheckpointFallbacks()
		if fallbacks != 0 {
			st.Close()
			return nil, fmt.Errorf("E18: %d checkpoint fallbacks at %d× cache — steal should have carried the batch", fallbacks, mult)
		}
		if mult > 1 && cs.Steals-cs0.Steals == 0 {
			st.Close()
			return nil, fmt.Errorf("E18: dirty set %d× the cache but zero steals — the exhibit is not exercising eviction", mult)
		}
		// Read back a sample: stolen pages must have landed correctly.
		buf := make([]byte, len(payload))
		for _, i := range []int{0, objects / 2, objects - 1} {
			obj, err := st.OpenObject(oids[i])
			if err != nil {
				st.Close()
				return nil, err
			}
			if _, err := obj.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
				obj.Close()
				st.Close()
				return nil, err
			}
			obj.Close()
			if !bytes.Equal(buf, payload) {
				st.Close()
				return nil, fmt.Errorf("E18: object %d read back wrong after steal", oids[i])
			}
		}
		tbl.AddRow(fmt.Sprintf("%d×", mult), objects, ms(wall),
			cs.Steals-cs0.Steals, cs.ChunkFlushes-cs0.ChunkFlushes, fallbacks)
		if err := st.Close(); err != nil {
			return nil, err
		}
	}

	return &Result{
		ID:     "E18",
		Claim:  "steal decouples transaction size from cache size: one batch may dirty many multiples of the cache, the pager evicts uncommitted pages behind chunk-flushed log records, and commit seals the chain — no mid-transaction flush-all fallback.",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"each row is ONE Batch (create + append + tag per object) against a fresh volume; every object dirties its own extent-header page, so the dirty multiple is objects over cache capacity",
			"ckpt fallbacks counts commits that hit the log-capacity escape (checkpoint mid-stream); zero means the steal path alone carried every row",
			"read-back after commit verifies stolen pages landed via WAL-before-data ordering",
		},
	}, nil
}
