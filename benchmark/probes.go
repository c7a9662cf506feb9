package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/hfad"
	"repro/internal/btree"
	"repro/internal/buddy"
	"repro/internal/extent"
	"repro/internal/pager"
	"repro/internal/redo"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

// probes times the layers no public call reaches on its own. Each one is
// built alone on a device of its own, from the run's seed, and is the same
// on every workload.
func probes(seed uint64, small bool, set func(name string, v float64, unit string)) error {
	scale := 1
	if small {
		scale = 10
	}
	for _, probe := range []func(uint64, int, func(string, float64, string)) error{
		probeBtree, probeBuddy, probePager, probeWAL, probeExtent, probePosix, probeServer,
	} {
		if err := probe(seed, scale, set); err != nil {
			return err
		}
	}
	return nil
}

type pageAlloc struct{ ba *buddy.Allocator }

func (a pageAlloc) AllocPage() (uint64, error) { return a.ba.Alloc(1) }
func (a pageAlloc) FreePage(no uint64) error   { return a.ba.Free(no, 1) }

func probeBtree(seed uint64, scale int, set func(string, float64, string)) (err error) {
	const blocks = 1 << 13
	dev, err := newDevice(blocks)
	if err != nil {
		return err
	}
	defer release(dev, &err)
	tr, err := btree.Create(pager.New(dev, blocks, true), pageAlloc{buddy.New(1, blocks-1)})
	if err != nil {
		return err
	}
	n := 40000 / scale
	rng := workload.NewRng(seed)
	keys := rng.Perm(n)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%010d", keys[i])) }
	val := rng.Bytes(32)
	put, err := perCall(n/200, 200, func(i int) error { return tr.Put(key(i), val) })
	if err != nil {
		return err
	}
	s0 := tr.Stats()
	get, err := perCall(n/200, 200, func(i int) error {
		_, err := tr.Get(key(i))
		return err
	})
	if err != nil {
		return err
	}
	s1 := tr.Stats()
	t0 := time.Now()
	seen := 0
	if err := tr.Scan(nil, nil, func(_, _ []byte) bool { seen++; return true }); err != nil {
		return err
	}
	scan := float64(time.Since(t0)) / float64(seen)
	set("btree.put_us", put/1e3, "us")
	set("btree.get_us", get/1e3, "us")
	set("btree.scan_ns_per_key", scan, "ns")
	set("btree.pages_per_get", float64(s1.LevelsTouched-s0.LevelsTouched)/float64(s1.Descents-s0.Descents), "count")
	return nil
}

func probeBuddy(seed uint64, scale int, set func(string, float64, string)) error {
	ba := buddy.New(0, 1<<20)
	rng := workload.NewRng(seed)
	type run struct{ addr, n uint64 }
	var live []run
	alloc, err := perCall(400/scale, 500, func(int) error {
		// Keep a few thousand runs of 1 to 16 blocks alive, freeing a
		// random one for every allocation past that.
		if len(live) >= 4096 {
			j := rng.IntN(len(live))
			if err := ba.Free(live[j].addr, live[j].n); err != nil {
				return err
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		n := uint64(1) << rng.IntN(5)
		addr, err := ba.Alloc(n)
		live = append(live, run{addr, n})
		return err
	})
	if err != nil {
		return err
	}
	set("buddy.alloc_ns", alloc, "ns")
	return nil
}

func probePager(seed uint64, scale int, set func(string, float64, string)) (err error) {
	const blocks, capacity = 1 << 13, 1 << 10
	dev, err := newDevice(blocks)
	if err != nil {
		return err
	}
	defer release(dev, &err)
	pg := pager.New(dev, capacity, true)
	var sink byte
	touch := func(no uint64) error {
		p, err := pg.Acquire(no)
		if err != nil {
			return err
		}
		sink += p.Data()[0]
		pg.Release(p)
		return nil
	}
	rng := workload.NewRng(seed)
	// Misses: a cyclic sweep four times the capacity never finds its page.
	miss, err := perCall(160/scale, 500, func(i int) error { return touch(uint64(i) % blocks) })
	if err != nil {
		return err
	}
	// Hits: a set of a quarter of the capacity, touched once beforehand.
	hot := uint64(capacity / 4)
	for no := uint64(0); no < hot; no++ {
		if err := touch(no); err != nil {
			return err
		}
	}
	hit, err := perCall(400/scale, 1000, func(int) error { return touch(rng.Uint64N(hot)) })
	if err != nil {
		return err
	}
	_ = sink
	set("pager.acquire_hit_ns", hit, "ns")
	set("pager.acquire_miss_us", miss/1e3, "us")
	return nil
}

func probeWAL(seed uint64, scale int, set func(string, float64, string)) (err error) {
	const blocks = 1 << 11
	dev, err := newDevice(blocks)
	if err != nil {
		return err
	}
	defer release(dev, &err)
	l := wal.New(dev, 1, blocks-1)
	payload := redo.EncodeRange(128, workload.NewRng(seed).Bytes(64))
	var lsn uint64
	commit, err := perCall(200/scale, 100, func(int) error {
		// Four 64-byte range records and a sync: a small metadata commit.
		if l.Used() > l.Capacity()/2 {
			if err := l.Checkpoint(lsn); err != nil {
				return err
			}
		}
		t := l.Begin()
		for r := 0; r < 4; r++ {
			lsn++
			t.LogRecord(redo.Record{LSN: lsn, Page: 10 + lsn%64, Kind: redo.KindRange, Data: payload})
		}
		return t.Commit()
	})
	if err != nil {
		return err
	}
	set("wal.commit_us", commit/1e3, "us")
	return nil
}

func probeExtent(seed uint64, scale int, set func(string, float64, string)) (err error) {
	const blocks = 1 << 15
	dev, err := newDevice(blocks)
	if err != nil {
		return err
	}
	defer release(dev, &err)
	tr, err := extent.Create(pager.New(dev, 1<<12, true), buddy.New(1, blocks-1), extent.Config{})
	if err != nil {
		return err
	}
	rng := workload.NewRng(seed)
	chunk := rng.Bytes(appendSize)
	app, err := perCall(200/scale, 100, func(int) error {
		_, err := tr.Append(chunk)
		return err
	})
	if err != nil {
		return err
	}
	buf := make([]byte, 4096)
	span := tr.Size() - uint64(len(buf))
	read, err := perCall(200/scale, 100, func(int) error {
		_, err := tr.ReadAt(buf, rng.Uint64N(span))
		return err
	})
	if err != nil {
		return err
	}
	set("extent.append_us", app/1e3, "us")
	set("extent.read_us_per_4k", read/1e3, "us")
	return nil
}

// probeStore is a small transactional store for the probes above the
// library's public surface, and the device to release after closing it.
func probeStore() (*hfad.Store, *device, error) {
	dev, err := newDevice(1 << 14)
	if err != nil {
		return nil, nil, err
	}
	st, err := hfad.Create(dev, hfad.Options{Transactional: true, WALBlocks: 1024})
	if err != nil {
		return nil, nil, errors.Join(err, dev.free())
	}
	return st, dev, nil
}

func probePosix(seed uint64, scale int, set func(string, float64, string)) (err error) {
	st, dev, err := probeStore()
	if err != nil {
		return err
	}
	defer release(dev, &err)
	defer func() { err = errors.Join(err, st.Close()) }()
	pfs, err := st.POSIX()
	if err != nil {
		return err
	}
	tree := workload.NewPathTree(seed, 4, 4)
	for _, dir := range tree.Dirs {
		if err := pfs.Mkdir(dir, 0o755); err != nil {
			return err
		}
	}
	data := workload.NewRng(seed).Bytes(readSize)
	for _, leaf := range tree.Leaves {
		if err := pfs.WriteFile(leaf, data, 0o644); err != nil {
			return err
		}
	}
	leaf := func(i int) string { return tree.Leaves[i*31%len(tree.Leaves)] }
	stat, err := perCall(100/scale, 100, func(i int) error {
		_, err := pfs.Stat(leaf(i))
		return err
	})
	if err != nil {
		return err
	}
	read, err := perCall(100/scale, 100, func(i int) error {
		_, err := pfs.ReadFile(leaf(i))
		return err
	})
	if err != nil {
		return err
	}
	set("posixfs.stat_us", stat/1e3, "us")
	set("posixfs.readfile_us", read/1e3, "us")
	return nil
}

// api is the part of the store's surface the server probe drives three
// ways: through the library, through the server's transport-agnostic
// methods, and through an HTTP client on the loopback interface.
type api interface {
	read(oid uint64) error
	page(after uint64) error
	append(oid uint64, data []byte) error
	tag(oid uint64, value string) error
}

type viaStore struct{ st *hfad.Store }

func (v viaStore) read(oid uint64) error {
	obj, err := v.st.OpenObject(hfad.OID(oid))
	if err != nil {
		return err
	}
	defer obj.Close()
	if _, err = obj.ReadAt(make([]byte, readSize), 0); errors.Is(err, io.EOF) {
		return nil // the objects are exactly readSize long
	}
	return err
}

func (v viaStore) page(after uint64) error {
	_, err := v.st.FindPage(hfad.Page{Limit: pageLimit, After: hfad.OID(after)}, hfad.TV(hfad.TagUDef, "all"))
	return err
}

func (v viaStore) append(oid uint64, data []byte) error {
	obj, err := v.st.OpenObject(hfad.OID(oid))
	if err != nil {
		return err
	}
	defer obj.Close()
	return obj.Append(data)
}

func (v viaStore) tag(oid uint64, value string) error {
	return v.st.Tag(hfad.OID(oid), hfad.TagUDef, value)
}

type viaServer struct{ s *server.Server }

func (v viaServer) read(oid uint64) error { _, err := v.s.Read(oid, 0, readSize); return err }
func (v viaServer) page(after uint64) error {
	_, err := v.s.Find(&server.FindReq{Pairs: []server.TagPair{{Tag: hfad.TagUDef, Value: "all"}}, Page: server.PageSpec{Limit: pageLimit, After: after}})
	return err
}
func (v viaServer) append(oid uint64, data []byte) error {
	_, err := v.s.Append(&server.AppendReq{OID: oid, Data: data})
	return err
}
func (v viaServer) tag(oid uint64, value string) error {
	return v.s.Tag(&server.TagReq{OID: oid, Tag: hfad.TagUDef, Value: value})
}

type viaHTTP struct{ c *server.Client }

func (v viaHTTP) read(oid uint64) error { _, err := v.c.Read(oid, 0, readSize); return err }
func (v viaHTTP) page(after uint64) error {
	_, err := v.c.Find(&server.FindReq{Pairs: []server.TagPair{{Tag: hfad.TagUDef, Value: "all"}}, Page: server.PageSpec{Limit: pageLimit, After: after}})
	return err
}
func (v viaHTTP) append(oid uint64, data []byte) error {
	_, err := v.c.Append(oid, data)
	return err
}
func (v viaHTTP) tag(oid uint64, value string) error { return v.c.Tag(oid, hfad.TagUDef, value) }

// drive runs the mixed_txn shares of single calls (read, page, append,
// tag) through one route and returns the median time of a call.
func drive(a api, route string, seed uint64, oids []uint64, n int) (float64, error) {
	g := newGen(seed, len(oids), specByName("mixed_txn").mix)
	data := workload.NewRng(seed).Bytes(appendSize)
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		o := g.next()
		oid := oids[o.k[0]]
		t0 := time.Now()
		var err error
		switch o.class {
		case opRead:
			err = a.read(oid)
		case opPage:
			err = a.page(oid)
		case opAppend:
			err = a.append(oid, data)
		default:
			err = a.tag(oid, route+":"+strconv.Itoa(i))
		}
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", route, classNames[o.class], err)
		}
		times = append(times, float64(time.Since(t0)))
	}
	return median(times), nil
}

func probeServer(seed uint64, scale int, set func(string, float64, string)) (err error) {
	st, dev, err := probeStore()
	if err != nil {
		return err
	}
	defer release(dev, &err)
	var oids []uint64
	text := workload.NewRng(seed).Bytes(readSize)
	err = st.Batch(func(b *hfad.Batch) error {
		for i := 0; i < 500; i++ {
			obj, err := b.CreateObject("bench")
			if err != nil {
				return err
			}
			oids = append(oids, uint64(obj.OID()))
			err = errors.Join(b.Append(obj, text), b.Tag(obj.OID(), hfad.TagUDef, "all"), obj.Close())
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return errors.Join(err, st.Close())
	}

	srv := server.New(st, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return errors.Join(err, st.Close())
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		// Shutdown drains the server and closes the store.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err = errors.Join(err, srv.Shutdown(ctx))
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	}()

	n := 3000 / scale
	direct, err := drive(viaStore{st}, "store", seed, oids, n)
	if err != nil {
		return err
	}
	method, err := drive(viaServer{srv}, "server", seed, oids, n)
	if err != nil {
		return err
	}
	wire, err := drive(viaHTTP{server.NewClient(ln.Addr().String())}, "http", seed, oids, n)
	if err != nil {
		return err
	}
	set("server.method_overhead_us", (method-direct)/1e3, "us")
	set("server.http_overhead_us", (wire-method)/1e3, "us")

	// Two clients appending at once: how many writes one coalesced batch
	// absorbs, and whether admission control turned any away. They call
	// the server's methods: two HTTP clients racing to dial can leave a
	// connection that never carried a request, and http.Server.Shutdown
	// waits five seconds for one of those.
	m0 := srv.Metrics()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n/2 && errs[c] == nil; i++ {
				errs[c] = viaServer{srv}.append(oids[(i*2+c)%len(oids)], text[:appendSize])
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	m1 := srv.Metrics()
	set("server.coalesce_avg", float64(m1.IngestOps-m0.IngestOps)/float64(m1.IngestBatches-m0.IngestBatches), "count")
	set("server.rejected", float64(m1.RejectedInflight+m1.RejectedQueue), "count")
	return nil
}
