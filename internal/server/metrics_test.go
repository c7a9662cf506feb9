package server

import (
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
