package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/hfad"
	"repro/internal/workload"
)

// slowSyncDevice charges each Sync a blocking 100µs, the flush cost a
// real device charges a commit, so concurrent commits pile up behind it.
type slowSyncDevice struct{ hfad.Device }

func (d slowSyncDevice) Sync() error {
	time.Sleep(100 * time.Microsecond)
	return d.Device.Sync()
}

// appendAck is one acknowledged append: the payload and the object size
// the server reported right after it landed.
type appendAck struct {
	data []byte
	size uint64
}

// TestHotObjectAppendsAcrossConnections runs a zipfian read/append/query
// mix from 16 connections over a preloaded population, so the hottest
// OIDs take appends from up to 16 concurrent brackets.
// Every append payload is unique, which gives each ack an oracle: acks
// for one OID report distinct sizes, each object's final size is its
// preload plus its acked bytes, the bytes just below each acked size are
// that append's payload, and the volume checks clean before and after a
// shutdown and reopen.
func TestHotObjectAppendsAcrossConnections(t *testing.T) {
	const (
		conns      = 16
		objects    = 2000
		mixedOps   = 8000
		batchItems = objects / conns
	)
	// Force real interleaving of the 16 concurrent brackets even on small
	// runners (see core's TestConcurrentAppendsSameObjectNoLostUpdate).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	dev := hfad.NewMemDevice(1 << 14)
	st, err := hfad.Create(slowSyncDevice{dev}, hfad.Options{WALBlocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{MaxInFlight: 2 * conns})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()
	shutdown := func() {
		// The pooled transport may hold a dialed connection that never
		// carried a request; http.Server.Shutdown waits 5 s before it
		// treats such a connection as idle.
		sharedTransport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-serveDone
	}
	var shutOnce sync.Once
	defer shutOnce.Do(shutdown)
	clients := make([]*Client, conns)
	for i := range clients {
		clients[i] = NewClient(ln.Addr().String())
	}

	// Preload through /v1/batch, one slice of the population per client.
	preload := workload.NewRng(17).Bytes(96)
	oids := make([]uint64, objects)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			items := make([]BatchItem, batchItems)
			for i := range items {
				id := w*batchItems + i
				items[i] = BatchItem{Create: &CreateReq{
					Owner: "hot",
					Data:  preload,
					Tags:  []TagPair{{Tag: hfad.TagUDef, Value: fmt.Sprintf("g:%d", id%100)}},
				}}
			}
			resp, err := clients[w].Batch(&BatchReq{Items: items})
			if err != nil {
				errs <- fmt.Errorf("preload %d: %w", w, err)
				return
			}
			for i, r := range resp.Results {
				if r.Err != "" {
					errs <- fmt.Errorf("preload item: %s", r.Err)
					return
				}
				oids[w*batchItems+i] = r.OID
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The mix: acks are recorded per rank, each under its own lock.
	acks := make([][]appendAck, objects)
	ackMu := make([]sync.Mutex, objects)
	var issued atomic.Int64
	errs = make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w]
			mix := workload.NewMix(uint64(1700+w), objects, workload.MixConfig{})
			for n := issued.Add(1); n <= mixedOps; n = issued.Add(1) {
				op, rank := mix.Next()
				oid := oids[rank]
				var err error
				switch op {
				case workload.OpRead:
					_, err = c.Read(oid, 0, 64)
				case workload.OpWrite:
					data := []byte(fmt.Sprintf("append %02d/%06d to %d;", w, n, oid))
					var resp *AppendResp
					if resp, err = c.Append(oid, data); err == nil {
						ackMu[rank].Lock()
						acks[rank] = append(acks[rank], appendAck{data, resp.Size})
						ackMu[rank].Unlock()
					}
				case workload.OpQuery:
					_, err = c.Find(&FindReq{
						Pairs: []TagPair{{Tag: hfad.TagUDef, Value: fmt.Sprintf("g:%d", rank%100)}},
						Page:  PageSpec{Limit: 20},
					})
				}
				if err != nil {
					errs <- fmt.Errorf("%v oid %d: %w", op, oid, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The oracle, against the live store.
	want := make([]uint64, objects)
	appends := 0
	for rank, oid := range oids {
		want[rank] = uint64(len(preload))
		sizes := map[uint64]bool{}
		for _, a := range acks[rank] {
			if sizes[a.size] {
				t.Errorf("oid %d: two appends acked at size %d", oid, a.size)
			}
			sizes[a.size] = true
			want[rank] += uint64(len(a.data))
		}
		appends += len(acks[rank])
		meta, err := st.Stat(hfad.OID(oid))
		if err != nil {
			t.Fatalf("stat %d: %v", oid, err)
		}
		if meta.Size != want[rank] {
			t.Errorf("oid %d: size %d, want %d preloaded + %d appended", oid, meta.Size, len(preload), want[rank]-uint64(len(preload)))
			continue
		}
		if len(acks[rank]) == 0 {
			continue
		}
		obj, err := st.OpenObject(hfad.OID(oid))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range acks[rank] {
			if a.size < uint64(len(a.data)) {
				t.Errorf("oid %d: append of %d bytes acked at size %d", oid, len(a.data), a.size)
				continue
			}
			got := make([]byte, len(a.data))
			off := a.size - uint64(len(a.data))
			if n, err := obj.ReadAt(got, off); n != len(got) {
				t.Errorf("oid %d: read %d bytes at %d: %v", oid, n, off, err)
			} else if !bytes.Equal(got, a.data) {
				t.Errorf("oid %d: bytes below acked size %d are %q, want %q", oid, a.size, got, a.data)
			}
		}
		obj.Close()
	}
	if appends == 0 {
		t.Fatal("the mix acked no appends")
	}
	checkClean := func(when string, st *hfad.Store) {
		t.Helper()
		rep, err := st.Check()
		if err != nil {
			t.Fatalf("check %s: %v", when, err)
		}
		if !rep.Ok() {
			t.Fatalf("check %s: %v", when, rep.Problems)
		}
	}
	checkClean("live", st)
	if t.Failed() {
		return
	}

	shutOnce.Do(shutdown)
	st2, err := hfad.Open(dev, hfad.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	checkClean("after reopen", st2)
	for rank, oid := range oids {
		meta, err := st2.Stat(hfad.OID(oid))
		if err != nil {
			t.Fatalf("stat %d after reopen: %v", oid, err)
		}
		if meta.Size != want[rank] {
			t.Errorf("oid %d after reopen: size %d, want %d", oid, meta.Size, want[rank])
		}
	}
	t.Logf("%d objects, %d ops, %d acked appends", objects, mixedOps, appends)
}
