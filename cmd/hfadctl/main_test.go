package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/hfad"
	"repro/internal/server"
)

// TestDemoScript smoke-tests the whole command surface against a fresh
// in-memory volume — the same script `hfadctl demo` runs.
func TestDemoScript(t *testing.T) {
	if err := runScript(demoScript()); err != nil {
		t.Fatalf("demo script: %v", err)
	}
}

// TestQueryCommands covers the streaming-engine commands (findn paging,
// explain) plus error paths the demo script does not reach.
func TestQueryCommands(t *testing.T) {
	script := [][]string{
		{"mkdir", "/d"},
		{"write", "/d/a", "alpha"},
		{"write", "/d/b", "beta"},
		{"write", "/d/c", "gamma"},
		{"tag", "/d/a", "UDEF", "x"},
		{"tag", "/d/b", "UDEF", "x"},
		{"tag", "/d/c", "UDEF", "x"},
		{"findn", "2", "0", "UDEF", "x"},
		{"findn", "10", "2", "UDEF", "x"},
		{"explain", "UDEF", "x", "POSIX", "/d/a"},
	}
	if err := runScript(script); err != nil {
		t.Fatalf("query commands: %v", err)
	}
}

func TestBadCommands(t *testing.T) {
	for _, script := range [][][]string{
		{{"bogus"}},
		{{"findn", "zap", "0", "UDEF", "x"}},
		{{"findn", "1", "0", "UDEF"}},
		{{"explain", "UDEF"}},
		{{"cat", "/missing"}},
	} {
		if err := runScript(script); err == nil {
			t.Errorf("script %v succeeded, want error", script)
		}
	}
}

// TestRemoteScript runs the -addr command set against an in-process
// hfadd server.
func TestRemoteScript(t *testing.T) {
	st, err := hfad.Create(hfad.NewMemDevice(1<<14), hfad.Options{WALBlocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, server.Options{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Shutdown(context.Background())

	c := server.NewClient(hs.URL)
	created, err := c.Create(&server.CreateReq{Data: []byte("remote object")})
	if err != nil {
		t.Fatal(err)
	}
	oid := fmt.Sprintf("%d", created.OID)

	script := [][]string{
		{"create", "hello remote", "UDEF", "greeting"},
		{"append", oid, "more bytes"},
		{"cat", oid},
		{"stat", oid},
		{"tag", oid, "UDEF", "x"},
		{"names", oid},
		{"find", "UDEF", "x"},
		{"findn", "1", "0", "UDEF", "x"},
		{"explain", "UDEF", "x"},
		{"index", oid},
		{"search", "remote"},
		{"untag", oid, "UDEF", "x"},
		{"stats"},
		{"rm", oid},
	}
	if err := runRemoteScript(hs.URL, script); err != nil {
		t.Fatalf("remote script: %v", err)
	}

	for _, script := range [][]string{
		{"bogus"},
		{"stat", "notanumber"},
		{"cat", "99999"},
		{"find", "UDEF"},
	} {
		if err := executeRemote(c, script); err == nil {
			t.Errorf("remote %v succeeded, want error", script)
		}
	}
}
