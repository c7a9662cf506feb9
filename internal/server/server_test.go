package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/hfad"
	"repro/internal/core"
)

// newTestServer spins up a transactional in-memory store behind an
// httptest server and returns a client for it.
func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	st, err := hfad.Create(hfad.NewMemDevice(1<<14), hfad.Options{WALBlocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, opts)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv, NewClient(hs.URL)
}

func TestServerRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Options{})

	created, err := c.Create(&CreateReq{
		Owner: "alice",
		Data:  []byte("the quick brown fox"),
		Tags:  []TagPair{{Tag: hfad.TagUDef, Value: "notes"}},
		Index: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if created.Size != 19 {
		t.Fatalf("size=%d", created.Size)
	}

	ap, err := c.Append(created.OID, []byte(" jumps"))
	if err != nil {
		t.Fatal(err)
	}
	if ap.Size != 25 {
		t.Fatalf("append size=%d", ap.Size)
	}

	data, err := c.Read(created.OID, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "quick" {
		t.Fatalf("read=%q", data)
	}

	stat, err := c.Stat(created.OID)
	if err != nil {
		t.Fatal(err)
	}
	if stat.Owner != "alice" || stat.Size != 25 {
		t.Fatalf("stat=%+v", stat)
	}

	names, err := c.Names(created.OID)
	if err != nil {
		t.Fatal(err)
	}
	if len(names.Names) < 2 { // UDEF tag + fulltext terms
		t.Fatalf("names=%+v", names)
	}

	found, err := c.Find(&FindReq{Pairs: []TagPair{{Tag: hfad.TagUDef, Value: "notes"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(found.OIDs) != 1 || found.OIDs[0] != created.OID {
		t.Fatalf("find=%+v", found)
	}

	hits, err := c.Search([]string{"quick", "fox"}, PageSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits.OIDs) != 1 || hits.OIDs[0] != created.OID {
		t.Fatalf("search=%+v", hits)
	}

	if err := c.Untag(created.OID, hfad.TagUDef, "notes"); err != nil {
		t.Fatal(err)
	}
	found, err = c.Find(&FindReq{Pairs: []TagPair{{Tag: hfad.TagUDef, Value: "notes"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(found.OIDs) != 0 {
		t.Fatalf("find after untag=%+v", found)
	}

	if err := c.Delete(created.OID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(created.OID); err == nil {
		t.Fatal("stat after delete succeeded")
	} else if se, ok := err.(*StatusError); !ok || se.Code != 404 {
		t.Fatalf("stat after delete = %v, want 404", err)
	}
}

func TestServerQueryTreeAndPagination(t *testing.T) {
	_, c := newTestServer(t, Options{})

	// 30 objects: even ones tagged kind=even, odd kind=odd; all year=2026.
	var items []BatchItem
	for i := 0; i < 30; i++ {
		kind := "odd"
		if i%2 == 0 {
			kind = "even"
		}
		items = append(items, BatchItem{Create: &CreateReq{
			Data: []byte(fmt.Sprintf("obj %d", i)),
			Tags: []TagPair{
				{Tag: hfad.TagUDef, Value: "kind=" + kind},
				{Tag: hfad.TagUDef, Value: "year=2026"},
			},
		}})
	}
	bresp, err := c.Batch(&BatchReq{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 30 {
		t.Fatalf("results=%d", len(bresp.Results))
	}

	// Boolean tree: kind=even AND year=2026, paginated by 4.
	q := QueryNode{And: []QueryNode{
		{Term: &TagPair{Tag: hfad.TagUDef, Value: "kind=even"}},
		{Term: &TagPair{Tag: hfad.TagUDef, Value: "year=2026"}},
	}}
	var got []uint64
	page := PageSpec{Limit: 4}
	for {
		resp, err := c.Query(&QueryReq{Query: q, Page: page})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resp.OIDs...)
		if !resp.More {
			break
		}
		if len(resp.OIDs) != 4 {
			t.Fatalf("full page had %d oids", len(resp.OIDs))
		}
		page.After = resp.NextAfter
	}
	if len(got) != 15 {
		t.Fatalf("paginated query found %d, want 15", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("oids not ascending: %v", got)
		}
	}

	// Explain returns a plan.
	ex, err := c.Explain(&FindReq{Pairs: []TagPair{
		{Tag: hfad.TagUDef, Value: "kind=even"},
		{Tag: hfad.TagUDef, Value: "year=2026"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Steps) == 0 || len(ex.OIDs) != 15 {
		t.Fatalf("explain=%+v", ex)
	}
}

func TestServerBadRequests(t *testing.T) {
	_, c := newTestServer(t, Options{})

	status := func(err error) int {
		t.Helper()
		se, ok := err.(*StatusError)
		if !ok {
			t.Fatalf("want StatusError, got %v", err)
		}
		return se.Code
	}

	if _, err := c.Find(&FindReq{}); status(err) != 400 {
		t.Errorf("empty find: %v", err)
	}
	if _, err := c.Query(&QueryReq{Query: QueryNode{}}); status(err) != 400 {
		t.Errorf("empty query node: %v", err)
	}
	bad := QueryNode{
		Term: &TagPair{Tag: "a", Value: "b"},
		Not:  &QueryNode{Term: &TagPair{Tag: "c", Value: "d"}},
	}
	if _, err := c.Query(&QueryReq{Query: bad}); status(err) != 400 {
		t.Errorf("two-field query node: %v", err)
	}
	if _, err := c.Batch(&BatchReq{}); status(err) != 400 {
		t.Errorf("empty batch: %v", err)
	}
	if _, err := c.Batch(&BatchReq{Items: []BatchItem{{}}}); status(err) != 400 {
		t.Errorf("empty batch item: %v", err)
	}
	if _, err := c.Stat(99999); status(err) != 404 {
		t.Errorf("stat missing: %v", err)
	}
	if _, err := c.Append(99999, []byte("x")); status(err) != 404 {
		t.Errorf("append missing: %v", err)
	}
}

// TestFailedWriteLeavesNoTrace sends a Create whose second name has no
// index behind it. The request is bad input (400), and because it is
// one transaction, neither the object nor its valid first name remains.
func TestFailedWriteLeavesNoTrace(t *testing.T) {
	srv, c := newTestServer(t, Options{})
	before := srv.Store().Stats().Objects.Objects

	_, err := c.Create(&CreateReq{
		Data: []byte("half a write"),
		Tags: []TagPair{{Tag: hfad.TagUDef, Value: "trace"}, {Tag: "NOSUCHTAG", Value: "x"}},
	})
	if se, ok := err.(*StatusError); !ok || se.Code != http.StatusBadRequest {
		t.Errorf("create with an unknown tag = %v, want StatusError 400", err)
	}
	if got := srv.Store().Stats().Objects.Objects; got != before {
		t.Errorf("objects %d -> %d after a failed create", before, got)
	}
	found, err := c.Find(&FindReq{Pairs: []TagPair{{Tag: hfad.TagUDef, Value: "trace"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(found.OIDs) != 0 {
		t.Errorf("the failed create's valid name resolves to %v", found.OIDs)
	}
}

// TestBatchFailedItemCommitsNothing sends a two-item batch whose second
// item names a tag with no index behind it. The batch is one transaction:
// the request fails with that item's status and index, and the first
// item's object and name are gone with it.
func TestBatchFailedItemCommitsNothing(t *testing.T) {
	srv, c := newTestServer(t, Options{})
	before := srv.Store().Stats().Objects.Objects

	_, err := c.Batch(&BatchReq{Items: []BatchItem{
		{Create: &CreateReq{Data: []byte("item zero"), Tags: []TagPair{{Tag: hfad.TagUDef, Value: "batch0"}}}},
		{Create: &CreateReq{Data: []byte("item one"), Tags: []TagPair{{Tag: "NOSUCHTAG", Value: "x"}}}},
	}})
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusBadRequest {
		t.Fatalf("batch with a bad item = %v, want StatusError 400", err)
	}
	if !strings.Contains(se.Error(), "batch item 1") {
		t.Errorf("error %q does not name item 1", se.Error())
	}
	if got := srv.Store().Stats().Objects.Objects; got != before {
		t.Errorf("objects %d -> %d after a failed batch", before, got)
	}
	found, err := c.Find(&FindReq{Pairs: []TagPair{{Tag: hfad.TagUDef, Value: "batch0"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(found.OIDs) != 0 {
		t.Errorf("item 0's name resolves to %v after the batch failed", found.OIDs)
	}
}

// parkSyncDevice runs park before every Sync reaches the device, so a
// test decides when an in-flight sync completes.
type parkSyncDevice struct {
	hfad.Device
	park func()
}

func (d parkSyncDevice) Sync() error {
	d.park()
	return d.Device.Sync()
}

// TestConcurrentWritesShareSyncs pins the server's only cross-connection
// fan-in, WAL group commit, as a count. N HTTP clients each create
// perWriter objects while every device sync parks until each running
// client has a request inside the server and the cache has gone quiet,
// so writes that arrive during sync k commit together in sync k+1. One
// client pays one sync per write; sixteen share a sync at least four
// ways. Every write is visible afterwards.
func TestConcurrentWritesShareSyncs(t *testing.T) {
	for _, tc := range []struct {
		writers int
		check   func(syncsPerWrite float64) bool
		want    string
	}{
		{1, func(r float64) bool { return r == 1 }, "= 1"},
		{4, func(r float64) bool { return r < 1 }, "< 1"},
		{16, func(r float64) bool { return r <= 0.25 }, "<= 0.25"},
	} {
		t.Run(fmt.Sprintf("N=%d", tc.writers), func(t *testing.T) {
			r := syncsPerWrite(t, tc.writers)
			t.Logf("%d writers: %.3f WAL syncs per write", tc.writers, r)
			if !tc.check(r) {
				t.Errorf("%d writers: %.3f WAL syncs per write, want %s", tc.writers, r, tc.want)
			}
		})
	}
}

// syncsPerWrite runs writers concurrent HTTP clients of perWriter
// creates each and returns the WAL syncs the writes cost, per write.
func syncsPerWrite(t *testing.T, writers int) float64 {
	const perWriter = 25
	var (
		srv    *Server
		st     *hfad.Store
		gating atomic.Bool
		active atomic.Int64 // clients still writing
	)
	park := func() {
		if !gating.Load() {
			return
		}
		for deadline := time.Now().Add(time.Second); len(srv.inflight) < int(active.Load()) && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
		touched := func() int64 { s := st.Volume().Pager().Stats(); return s.Hits + s.Misses }
		for prev := touched(); ; {
			time.Sleep(250 * time.Microsecond)
			cur := touched()
			if cur == prev {
				return
			}
			prev = cur
		}
	}
	st, err := hfad.Create(parkSyncDevice{hfad.NewMemDevice(1 << 14), park}, hfad.Options{WALBlocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	srv = New(st, Options{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Shutdown(context.Background())
	c := NewClient(hs.URL)

	m0 := srv.Metrics()
	gating.Store(true)
	active.Store(int64(writers))
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer active.Add(-1)
			for i := 0; i < perWriter; i++ {
				_, err := c.Create(&CreateReq{
					Data: []byte(fmt.Sprintf("writer %d item %d", w, i)),
					Tags: []TagPair{{Tag: hfad.TagUDef, Value: fmt.Sprintf("w%d", w)}},
				})
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	gating.Store(false)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m1 := srv.Metrics()

	for w := 0; w < writers; w++ {
		found, err := c.Find(&FindReq{Pairs: []TagPair{{Tag: hfad.TagUDef, Value: fmt.Sprintf("w%d", w)}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(found.OIDs) != perWriter {
			t.Fatalf("writer %d: %d objects visible, want %d", w, len(found.OIDs), perWriter)
		}
	}
	return float64(m1.WAL.Syncs-m0.WAL.Syncs) / float64(writers*perWriter)
}

// TestServerAdmissionControl fills the in-flight bound with parked
// requests and checks overload answers 429 without touching the store.
func TestServerAdmissionControl(t *testing.T) {
	srv, c := newTestServer(t, Options{MaxInFlight: 2})
	c.MaxRetries = 0 // surface 429s

	// Park both slots.
	release := make(chan struct{})
	var parked sync.WaitGroup
	for i := 0; i < 2; i++ {
		if _, err := srv.admit(); err != nil {
			t.Fatal(err)
		}
		parked.Add(1)
		go func() { defer parked.Done(); <-release }()
	}

	if _, err := c.Stat(1); !IsBusy(err) {
		t.Fatalf("want 429, got %v", err)
	}
	// The 429's backoff hint lives in the body only: retry_after_ms
	// carries the sub-second hint, and no Retry-After header may
	// contradict it (the header can't express less than one second).
	hresp, err := http.Get(c.base + "/v1/objects/1")
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResp
	if err := json.NewDecoder(hresp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", hresp.StatusCode)
	}
	if e.RetryAfterMS != busyRetryMS {
		t.Errorf("retry_after_ms = %d, want %d", e.RetryAfterMS, busyRetryMS)
	}
	if h := hresp.Header.Get("Retry-After"); h != "" {
		t.Errorf("429 carries Retry-After %q contradicting the %dms body hint", h, busyRetryMS)
	}
	m := srv.Metrics()
	if m.RejectedInflight == 0 {
		t.Fatal("no rejection counted")
	}

	// Free the slots; requests flow again.
	close(release)
	parked.Wait()
	<-srv.inflight
	<-srv.inflight
	if _, err := c.Create(&CreateReq{Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
}

// TestServerGracefulShutdown checks the drain ordering: all acked writes
// survive Shutdown and the volume reopens fsck-clean.
func TestServerGracefulShutdown(t *testing.T) {
	dev := hfad.NewMemDevice(1 << 14)
	st, err := hfad.Create(dev, hfad.Options{WALBlocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	c := NewClient(ln.Addr().String())

	// Concurrent writers racing the shutdown.
	const writers = 8
	acked := make([][]uint64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				resp, err := c.Create(&CreateReq{Data: []byte(fmt.Sprintf("s%d-%d", w, i))})
				if err != nil {
					return // shutdown reached us
				}
				acked[w] = append(acked[w], resp.OID)
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if err := <-done; err != nil && err.Error() != "http: Server closed" {
		t.Fatalf("serve: %v", err)
	}

	// Reopen the same device: fsck must pass and every acked OID exist.
	st2, err := hfad.Open(dev, hfad.Options{WALBlocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rep, err := st2.Check()
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("fsck dirty: %v", rep.Problems)
	}
	total := 0
	for w := range acked {
		for _, oid := range acked[w] {
			if _, err := st2.Stat(hfad.OID(oid)); err != nil {
				t.Fatalf("acked oid %d lost: %v", oid, err)
			}
		}
		total += len(acked[w])
	}
	if total == 0 {
		t.Fatal("no writes acked before shutdown; test proved nothing")
	}
	t.Logf("%d acked writes all present after shutdown+reopen", total)

	// A write after shutdown fails cleanly.
	if _, err := srv.Create(&CreateReq{Data: []byte("late")}); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("create after shutdown = %v, want core.ErrClosed", err)
	}
}

func TestWireQueryValidation(t *testing.T) {
	good := QueryNode{Or: []QueryNode{
		{Term: &TagPair{Tag: "t", Value: "v"}},
		{And: []QueryNode{
			{Range: &RangeSpec{Tag: "t", Lo: "a", Hi: "z"}},
			{Not: &QueryNode{Term: &TagPair{Tag: "t", Value: "x"}}},
		}},
	}}
	if _, err := good.ToQuery(); err != nil {
		t.Fatalf("good tree rejected: %v", err)
	}
	bad := QueryNode{Or: []QueryNode{{}}}
	if _, err := bad.ToQuery(); err == nil {
		t.Fatal("empty nested node accepted")
	}
}
