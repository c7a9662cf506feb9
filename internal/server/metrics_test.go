package server

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"testing"
)

// TestWALMetricsEveryFieldMoves: writes and a checkpoint through the
// server move every log counter it exports, in /debug/stats's fields and
// in /metrics.
func TestWALMetricsEveryFieldMoves(t *testing.T) {
	srv, c := newTestServer(t, Options{})
	for i := 0; i < 3; i++ {
		if _, err := c.Create(&CreateReq{Owner: "m", Data: []byte("log me"), Index: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.st.Sync(); err != nil {
		t.Fatal(err)
	}
	w := srv.Metrics().WAL
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Commits", float64(w.Commits)}, {"Groups", float64(w.Groups)}, {"Syncs", float64(w.Syncs)},
		{"PagesLogged", float64(w.PagesLogged)}, {"BytesLogged", float64(w.BytesLogged)},
		{"BlockWrites", float64(w.BlockWrites)}, {"Checkpoints", float64(w.Checkpoints)},
		{"AvgGroup", w.AvgGroup},
	} {
		if f.v <= 0 {
			t.Errorf("WALMetrics.%s did not move: %v", f.name, f.v)
		}
	}
	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^hfadd_wal_block_writes_total [1-9][0-9]*$`).Match(body) {
		t.Errorf("/metrics has no moving hfadd_wal_block_writes_total:\n%s", body)
	}
}

// TestAllocStrandedMetricMoves: a batch packs four 1 KiB objects into one
// block; with three of them deleted and limbo drained, the block's free
// three quarters are stranded, in /debug/stats and in /metrics, and with
// the fourth deleted too the block coalesces and nothing is stranded.
func TestAllocStrandedMetricMoves(t *testing.T) {
	srv, c := newTestServer(t, Options{})
	req := &BatchReq{}
	for i := 0; i < 4; i++ {
		req.Items = append(req.Items, BatchItem{Create: &CreateReq{Owner: "s", Data: make([]byte, 1000)}})
	}
	resp, err := c.Batch(req)
	if err != nil {
		t.Fatal(err)
	}
	stranded := func(want float64) {
		t.Helper()
		if err := srv.st.Sync(); err != nil { // a checkpoint drains limbo
			t.Fatal(err)
		}
		if got := srv.Metrics().Alloc.StrandedBlocks; got != want {
			t.Errorf("StrandedBlocks = %v, want %v", got, want)
		}
		body := metricsBody(t, c)
		if !regexp.MustCompile(fmt.Sprintf(`(?m)^hfadd_alloc_stranded_blocks %v$`, want)).Match(body) {
			t.Errorf("/metrics has no hfadd_alloc_stranded_blocks %v:\n%s", want, body)
		}
	}
	stranded(0)
	for _, r := range resp.Results[:3] {
		if err := c.Delete(r.OID); err != nil {
			t.Fatal(err)
		}
	}
	stranded(0.75)
	if err := c.Delete(resp.Results[3].OID); err != nil {
		t.Fatal(err)
	}
	stranded(0)
}

// metricsBody fetches /metrics.
func metricsBody(t *testing.T, c *Client) []byte {
	t.Helper()
	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
