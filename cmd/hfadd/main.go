// Command hfadd serves an hFAD volume over HTTP/JSON: the full store
// surface (create/append/read/stat/tag/find/query/search/batch) with
// cross-connection write coalescing, admission control, and /metrics.
//
//	hfadd -vol /data/hfad.img -blocks 262144 -addr :8080
//
// The volume is a file-backed block device, created and formatted on
// first use; -mem serves an in-memory volume instead (testing). SIGINT
// or SIGTERM triggers a graceful shutdown: stop accepting, finish
// in-flight requests, drain the ingest queue, close the store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		vol      = flag.String("vol", "", "volume image path (file-backed device)")
		blocks   = flag.Uint64("blocks", 1<<16, "volume size in 4 KiB blocks when creating")
		mem      = flag.Bool("mem", false, "serve an in-memory volume (testing; data dies with the process)")
		walBlks  = flag.Uint64("wal", 4096, "WAL region size in blocks")
		cache    = flag.Int("cache", 4096, "buffer cache pages")
		inflight = flag.Int("max-inflight", 256, "max concurrently executing requests (admission bound)")
		queue    = flag.Int("queue", 1024, "ingest queue depth (write admission bound)")
		coalesce = flag.Int("coalesce", 128, "max writes coalesced into one transaction")
		workers  = flag.Int("ingest-workers", 0, "coalescing workers (0 = min(4, GOMAXPROCS))")
		drainS   = flag.Int("drain-timeout", 30, "graceful shutdown timeout, seconds")
	)
	flag.Parse()
	if err := run(*addr, *vol, *blocks, *mem, *walBlks, *cache, *inflight, *queue, *coalesce, *workers, *drainS); err != nil {
		log.Fatal(err)
	}
}

func run(addr, vol string, blocks uint64, mem bool, walBlks uint64, cache, inflight, queue, coalesce, workers, drainS int) error {
	opts := hfad.Options{
		Transactional: true,
		WALBlocks:     walBlks,
		CachePages:    cache,
	}
	st, err := openStore(vol, blocks, mem, opts)
	if err != nil {
		return err
	}

	srv := server.New(st, server.Options{
		MaxInFlight:    inflight,
		QueueDepth:     queue,
		CoalesceWindow: coalesce,
		IngestWorkers:  workers,
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		st.Close()
		return err
	}
	log.Printf("hfadd: serving on %s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("hfadd: %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(drainS)*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		log.Printf("hfadd: clean shutdown")
		return nil
	case err := <-errc:
		st.Close()
		return err
	}
}

// openStore opens (or creates and formats) the volume. A file image that
// already exists is opened with WAL recovery; a fresh path is created
// with the requested geometry.
func openStore(vol string, blocks uint64, mem bool, opts hfad.Options) (*hfad.Store, error) {
	if mem {
		return hfad.Create(hfad.NewMemDevice(blocks), opts)
	}
	if vol == "" {
		return nil, fmt.Errorf("hfadd: need -vol PATH or -mem")
	}
	if _, err := os.Stat(vol); err == nil {
		dev, err := blockdev.OpenFile(vol, blockdev.DefaultBlockSize)
		if err != nil {
			return nil, err
		}
		st, err := hfad.Open(dev, opts)
		if err != nil {
			dev.Close() //hfadvet:allow syncerr — best-effort cleanup; the Open failure is the verdict
			return nil, err
		}
		log.Printf("hfadd: opened %s (%d blocks)", vol, dev.NumBlocks())
		log.Printf("hfadd: recovery: %s", st.RecoveryReport())
		return st, nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		// Only a definitely-absent image takes the create path:
		// CreateFile truncates, and treating a transient stat failure
		// (EACCES, EIO, ...) as "no volume" would destroy the image.
		return nil, fmt.Errorf("hfadd: stat %s: %w", vol, err)
	}
	dev, err := blockdev.CreateFile(vol, blocks, blockdev.DefaultBlockSize)
	if err != nil {
		return nil, err
	}
	st, err := hfad.Create(dev, opts)
	if err != nil {
		dev.Close() //hfadvet:allow syncerr — best-effort cleanup; the image is removed next anyway
		os.Remove(vol)
		return nil, err
	}
	log.Printf("hfadd: created %s (%d blocks)", vol, blocks)
	return st, nil
}
