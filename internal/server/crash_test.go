package server

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/hfad"
	"repro/internal/blockdev"
)

// TestMain lets the test binary double as the hfadd server process for
// the kill -9 test: when HFADD_CRASH_SERVE names a volume image, the
// binary serves it instead of running tests.
func TestMain(m *testing.M) {
	if img := os.Getenv("HFADD_CRASH_SERVE"); img != "" {
		crashServeMain(img)
		return
	}
	os.Exit(m.Run())
}

// crashServeMain is the child: create or open the image, serve it, and
// print the listen address on stdout. It never shuts down cleanly — the
// parent kills it.
func crashServeMain(img string) {
	var st *hfad.Store
	var err error
	opts := hfad.Options{WALBlocks: 2048}
	if _, serr := os.Stat(img); serr == nil {
		var dev *blockdev.FileDevice
		if dev, err = blockdev.OpenFile(img, 0); err == nil {
			st, err = hfad.Open(dev, opts)
		}
	} else {
		var dev *blockdev.FileDevice
		if dev, err = blockdev.CreateFile(img, 1<<14, 0); err == nil {
			st, err = hfad.Create(dev, opts)
		}
	}
	if err != nil {
		log.Fatalf("crash child: %v", err)
	}
	srv := New(st, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("crash child: %v", err)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	os.Stdout.Sync()
	log.Fatal(srv.Serve(ln))
}

// TestServerKillNineDurability is the acceptance crash test: SIGKILL the
// server mid-load, reopen the image, and require (a) fsck-clean and (b)
// every write the server ACKED is present. Acks imply a synced WAL
// commit, and the file-backed device's written blocks live in the OS
// page cache, which survives process death — so nothing acked may be
// lost even though the process never got to shut down.
func TestServerKillNineDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child server process")
	}
	img := filepath.Join(t.TempDir(), "crash.img")

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "HFADD_CRASH_SERVE="+img)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Read the child's listen address.
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if s, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
			addr = s
			break
		}
	}
	if addr == "" {
		t.Fatalf("child printed no address: %v", sc.Err())
	}
	c := NewClient(addr)

	// Load phase: concurrent writers record every ACKED oid. Each object
	// carries a recognizable payload so presence checks are content checks.
	const writers = 8
	acked := make([][]uint64, writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := c.Create(&CreateReq{
					Data: []byte(fmt.Sprintf("crash-w%d-i%d", w, i)),
					Tags: []TagPair{{Tag: hfad.TagUDef, Value: "crash"}},
				})
				if err != nil {
					return // the kill reached us mid-call
				}
				acked[w] = append(acked[w], resp.OID)
			}
		}(w)
	}

	// Let load build, then kill -9 mid-flight.
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	cmd.Wait()

	total := 0
	for w := range acked {
		total += len(acked[w])
	}
	if total == 0 {
		t.Fatal("no writes acked before kill; test proved nothing")
	}

	// Recovery: reopen the image, fsck, verify every acked write.
	dev, err := blockdev.OpenFile(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := hfad.Open(dev, hfad.Options{WALBlocks: 2048})
	if err != nil {
		t.Fatalf("reopen after kill -9: %v", err)
	}
	defer st.Close()

	rep, err := st.Check()
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("fsck dirty after kill -9: %v", rep.Problems)
	}

	for w := range acked {
		for i, oid := range acked[w] {
			obj, err := st.OpenObject(hfad.OID(oid))
			if err != nil {
				t.Fatalf("acked oid %d (writer %d) lost: %v", oid, w, err)
			}
			want := fmt.Sprintf("crash-w%d-i%d", w, i)
			buf := make([]byte, len(want))
			if n, err := obj.ReadAt(buf, 0); n != len(want) && err != nil {
				t.Fatalf("read acked oid %d: n=%d %v (want %q)", oid, n, err, want)
			}
			obj.Close()
			if string(buf) != want {
				t.Fatalf("acked oid %d content = %q, want %q", oid, buf, want)
			}
		}
	}
	t.Logf("kill -9 with %d acked writes: fsck clean, all present", total)
}
