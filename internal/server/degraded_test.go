package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/hfad"
	"repro/internal/blockdev"
)

// TestServerDegradedMode wedges the store's checkpoint path with an
// injected write fault and checks the whole degraded surface: /healthz
// flips to 503 with fault detail, mutations fail fast with 503 +
// Retry-After, reads keep serving, /metrics exports the gauges, and once
// the fault is cleared and the store's clock passes the retry backoff, a
// single /healthz probe heals the store back to 200s without a restart.
func TestServerDegradedMode(t *testing.T) {
	fd := blockdev.NewFault(hfad.NewMemDevice(1 << 14))
	var now atomic.Int64 // the store's clock; handlers read it concurrently
	now.Store(time.Unix(1_000_000, 0).UnixNano())
	clock := func() time.Time { return time.Unix(0, now.Load()) }
	st, err := hfad.Create(fd, hfad.Options{WALBlocks: 2048, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Shutdown(context.Background())
	defer fd.ClearRules() // never leave shutdown wedged
	c := NewClient(hs.URL)
	c.MaxRetries = 0 // surface 503s; retry behavior is tested separately

	created, err := c.Create(&CreateReq{Owner: "a", Data: []byte("healthy write")})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Healthy() {
		t.Fatal("healthy store reports unhealthy")
	}

	// Wedge: every write into the data region fails, so checkpoints
	// (which flush dirty pages home) cannot complete. WAL appends land
	// below the data region and still succeed — this is media failure,
	// not total device loss.
	start, blocks := st.Volume().DataRegion()
	fd.AddRule(blockdev.FaultRule{Kind: blockdev.FaultError, Op: blockdev.OpWrite, Lo: start, Hi: start + blocks})
	if err := st.Sync(); err == nil {
		t.Fatal("Sync succeeded with data region unwritable")
	}
	if !st.Degraded() {
		t.Fatal("store not degraded after failed checkpoint")
	}

	// /healthz: 503 with structured fault state.
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResp
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz = %d, want 503", hresp.StatusCode)
	}
	if health.Status != "degraded" || !health.Degraded || health.CheckpointFailures == 0 {
		t.Fatalf("degraded /healthz body = %+v", health)
	}

	// Mutations fail fast with 503 + Retry-After; no partial effects.
	_, err = c.Create(&CreateReq{Owner: "a", Data: []byte("rejected")})
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded create err = %v, want StatusError 503", err)
	}

	// Reads still serve from the intact cache/WAL state.
	data, err := c.Read(created.OID, 0, 0)
	if err != nil || string(data) != "healthy write" {
		t.Fatalf("degraded read = %q, %v", data, err)
	}
	if _, err := c.Stat(created.OID); err != nil {
		t.Fatalf("degraded stat: %v", err)
	}

	// /metrics exports the degraded gauges.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	// hfadd_wal_wedged stays 0 here: the WAL still accepts appends, it's
	// the clearing checkpoint that fails — that is the degraded gauge.
	if !strings.Contains(body, "hfadd_degraded 1") || !strings.Contains(body, "hfadd_wal_wedged 0") {
		t.Fatalf("degraded /metrics missing gauges:\n%s", body)
	}

	// Heal: with the fault cleared and the clock past the backoff (at
	// most a second), one health probe retries the checkpoint and answers
	// 200 — no mutation and no wait needed.
	fd.ClearRules()
	now.Add(int64(time.Second))
	hresp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || st.Degraded() {
		t.Fatalf("/healthz after the fault cleared = %d (degraded %v), want 200", hresp.StatusCode, st.Degraded())
	}
	if _, err := c.Create(&CreateReq{Owner: "a", Data: []byte("post-heal write")}); err != nil {
		t.Fatalf("create after heal: %v", err)
	}
	if !c.Healthy() {
		t.Fatal("healed store reports unhealthy")
	}
}

// TestClientBackoffHonorsDeadline pins the client against a degraded
// server (503 + 1000ms retry hint) with a context whose budget cannot
// cover the hinted wait: doCtx must surface the 503 promptly instead of
// sleeping past the caller's deadline.
func TestClientBackoffHonorsDeadline(t *testing.T) {
	fd := blockdev.NewFault(hfad.NewMemDevice(1 << 14))
	st, err := hfad.Create(fd, hfad.Options{WALBlocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Shutdown(context.Background())
	defer fd.ClearRules()

	// Dirty some pages so the checkpoint has home writes to fail on.
	obj, err := st.CreateObject("a")
	if err != nil {
		t.Fatal(err)
	}
	obj.Close()
	start, blocks := st.Volume().DataRegion()
	fd.AddRule(blockdev.FaultRule{Kind: blockdev.FaultError, Op: blockdev.OpWrite, Lo: start, Hi: start + blocks})
	if err := st.Sync(); err == nil {
		t.Fatal("Sync succeeded with data region unwritable")
	}

	c := NewClient(hs.URL) // MaxRetries 8: would sleep seconds without a deadline
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err = c.doCtx(ctx, "POST", "/v1/objects", &CreateReq{Owner: "a", Data: []byte("x")}, nil)
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("create on degraded store succeeded")
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("deadline-bounded call took %v; backoff ignored the context", elapsed)
	}
	if se, ok := err.(*StatusError); ok {
		if se.Code != http.StatusServiceUnavailable {
			t.Fatalf("err = %v, want 503 or context error", err)
		}
	} else if ctx.Err() == nil {
		t.Fatalf("err = %v, want StatusError or context deadline", err)
	}
}
