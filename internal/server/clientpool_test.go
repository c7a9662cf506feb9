package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/hfad"
)

// newCountingServer is newTestServer plus a ConnState hook: it returns
// the number of distinct TCP connections the server has accepted, so
// tests can assert the client's transport actually reuses them.
func newCountingServer(t *testing.T, opts Options) (*Client, *int64) {
	t.Helper()
	st, err := hfad.Create(hfad.NewMemDevice(1<<14), hfad.Options{WALBlocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, opts)
	hs := httptest.NewUnstartedServer(srv.Handler())
	conns := new(int64)
	hs.Config.ConnState = func(c net.Conn, state http.ConnState) {
		if state == http.StateNew {
			atomic.AddInt64(conns, 1)
		}
	}
	hs.Start()
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return NewClient(hs.URL), conns
}

// TestClientConnectionReuse pins the pooled transport: a client issuing
// many sequential requests must ride a handful of keep-alive
// connections, not one per request. Without the shared transport's
// idle-pool sizing this held for a single client but broke under fan-in
// (see the concurrent test below).
func TestClientConnectionReuse(t *testing.T) {
	c, conns := newCountingServer(t, Options{})
	const calls = 50
	oid, err := c.Create(&CreateReq{Owner: "pool", Data: []byte("seed")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calls; i++ {
		if _, err := c.Append(oid.OID, []byte(fmt.Sprintf("chunk %d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stat(oid.OID); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt64(conns); got > 2 {
		t.Fatalf("%d TCP connections for %d sequential calls — transport is not reusing keep-alive connections", got, 2*calls+1)
	}
}

// TestClientConnectionReuseFanIn pins the idle-pool sizing: fan-in is
// many clients hammering one server concurrently. The default
// transport keeps only 2 idle connections per host, so every round
// beyond the first would open fresh connections; the shared transport's
// per-host pool must hold the whole fan-in set across rounds.
func TestClientConnectionReuseFanIn(t *testing.T) {
	const clients, rounds = 8, 6
	c0, conns := newCountingServer(t, Options{})
	cs := make([]*Client, clients)
	oids := make([]uint64, clients)
	for i := range cs {
		cs[i] = NewClient(c0.base) // distinct Clients, one shared transport
		created, err := cs[i].Create(&CreateReq{Owner: "fanin"})
		if err != nil {
			t.Fatal(err)
		}
		oids[i] = created.OID
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		wg.Add(clients)
		for i := 0; i < clients; i++ {
			go func(i int) {
				defer wg.Done()
				if _, err := cs[i].Append(oids[i], []byte("x")); err != nil {
					t.Errorf("round %d client %d: %v", r, i, err)
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	// clients connections carry clients*(rounds+1) requests; allow slack
	// for racy dial-vs-release timing but fail well before one-per-call.
	if got := atomic.LoadInt64(conns); got > int64(2*clients) {
		t.Fatalf("%d TCP connections for %d concurrent clients × %d rounds — idle pool is dropping fan-in connections", got, clients, rounds+1)
	}
}
