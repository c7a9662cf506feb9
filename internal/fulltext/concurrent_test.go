package fulltext

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/pager"
)

// TestConcurrentAddAndSearch drives writers and readers simultaneously;
// search must never error or return a doc that was fully deleted.
func TestConcurrentAddAndSearch(t *testing.T) {
	x, _ := newIndex(t, Config{FlushDocs: 16})
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: adds docs continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := x.Add(nil, i, fmt.Sprintf("shared corpus doc%d", i)); err != nil {
				t.Errorf("Add: %v", err)
				return
			}
		}
	}()
	// Readers: conjunction queries under churn.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, err := x.Search("shared", "corpus"); err != nil {
					t.Errorf("Search: %v", err)
					return
				}
			}
		}()
	}
	// Readers exit after their loops; then stop the writer and wait.
	readers := make(chan struct{})
	go func() {
		// A second WaitGroup would race with wg.Wait below; instead poll
		// search volume as the readiness signal: readers run 300 queries
		// each and finish quickly.
		close(readers)
	}()
	<-readers
	close(stop)
	wg.Wait()
}

// TestLazyIndexerSurvivesStopStart restarts the background worker and
// verifies queued work before and after both land.
func TestLazyIndexerSurvivesStopStart(t *testing.T) {
	x, _ := newIndex(t, Config{})
	x.StartLazy(8)
	for i := uint64(1); i <= 20; i++ {
		x.Enqueue(i, fmt.Sprintf("phase one token%d", i))
	}
	x.WaitIdle()
	x.StopLazy()
	// Restart and add more.
	x.StartLazy(8)
	for i := uint64(21); i <= 40; i++ {
		x.Enqueue(i, fmt.Sprintf("phase two token%d", i))
	}
	x.WaitIdle()
	x.StopLazy()
	ids, err := x.Search("one")
	if err != nil || len(ids) != 20 {
		t.Errorf("phase one = %d docs, %v", len(ids), err)
	}
	ids, err = x.Search("two")
	if err != nil || len(ids) != 20 {
		t.Errorf("phase two = %d docs, %v", len(ids), err)
	}
}

// TestCompactionFreesDeletedMajority: deleting most docs then compacting
// shrinks the index's page footprint.
func TestCompactionFreesDeletedMajority(t *testing.T) {
	e := newEnv(t)
	x, err := Create(e.pg, e.ba, Config{FlushDocs: 32, MaxSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 256; i++ {
		if err := x.Add(nil, i, fmt.Sprintf("bulk content number%d with padding words alpha beta", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Flush(nil); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 240; i++ {
		if err := x.Delete(nil, i); err != nil {
			t.Fatal(err)
		}
	}
	before := e.ba.FreeBlocks()
	if err := x.Compact(nil); err != nil {
		t.Fatal(err)
	}
	after := e.ba.FreeBlocks()
	if after <= before {
		t.Errorf("compaction freed nothing: %d -> %d free blocks", before, after)
	}
	ids, err := x.Search("bulk")
	if err != nil || len(ids) != 16 {
		t.Errorf("survivors = %d, want 16 (%v)", len(ids), err)
	}
}

// TestReopenAfterCompaction: manifest bookkeeping survives compaction +
// reopen cycles.
func TestReopenAfterCompaction(t *testing.T) {
	e := newEnv(t)
	x, err := Create(e.pg, e.ba, Config{FlushDocs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 30; i++ {
		if err := x.Add(nil, i, fmt.Sprintf("cycle word%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Delete(nil, 5); err != nil {
		t.Fatal(err)
	}
	if err := x.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.pg.Sync(); err != nil {
		t.Fatal(err)
	}
	pg2 := pager.New(e.dev, 256, true)
	y, err := Open(pg2, e.ba, x.ManifestPage(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := y.Search("cycle")
	if err != nil || len(ids) != 29 {
		t.Errorf("after reopen = %d docs, %v", len(ids), err)
	}
	// Deleted doc must not resurrect; re-add must work.
	for _, id := range ids {
		if id == 5 {
			t.Error("deleted doc resurrected across compaction+reopen")
		}
	}
	if err := y.Add(nil, 5, "cycle resurrected properly"); err != nil {
		t.Fatal(err)
	}
	ids, _ = y.Search("resurrected")
	if len(ids) != 1 || ids[0] != 5 {
		t.Errorf("re-add after reopen = %v", ids)
	}
}
