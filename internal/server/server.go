package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/hfad"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/osd"
	"repro/internal/stats"
)

// Options tunes the server.
type Options struct {
	// MaxInFlight bounds concurrently executing requests (admission
	// control; default 256). Excess requests get 429 immediately.
	MaxInFlight int
}

// Server errors, mapped to HTTP 429/503 by the transport layer.
var (
	// ErrBusy means in-flight admission is at capacity; the client
	// should back off and retry.
	ErrBusy = errors.New("server: overloaded, retry later")
	// ErrShutdown means the server is shutting down and accepts no new
	// work.
	ErrShutdown = errors.New("server: shutting down")
)

// Server serves one hFAD store over a transport. The op methods
// (Create, Append, Read, ...) are transport-agnostic — the HTTP adapter
// below maps JSON onto them, and a gRPC adapter could map protobufs onto
// the same methods.
type Server struct {
	st *hfad.Store

	// inflight is the admission semaphore; acquire is non-blocking so an
	// overloaded server answers 429 instead of queueing goroutines.
	inflight chan struct{}

	// admitted counts accepted requests; rejectedInflight counts 429s
	// from the in-flight bound; writes counts Create, Append, Tag and
	// Batch transactions. latency is per-op-class request time.
	admitted         stats.Counter
	rejectedInflight stats.Counter
	writes           stats.Counter
	latency          map[string]*stats.Histogram

	mu      sync.Mutex
	closed  bool
	httpSrv *http.Server
}

// latencyClasses key the per-class request histograms.
var latencyClasses = []string{"read", "write", "query", "admin"}

// New wraps an open store in a server. Acks imply a synced commit: every
// store is write-ahead logged.
func New(st *hfad.Store, opts Options) *Server {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 256
	}
	s := &Server{
		st:       st,
		inflight: make(chan struct{}, opts.MaxInFlight),
		latency:  make(map[string]*stats.Histogram, len(latencyClasses)),
	}
	for _, c := range latencyClasses {
		s.latency[c] = &stats.Histogram{}
	}
	return s
}

// Store exposes the wrapped store (tests, shutdown hooks).
func (s *Server) Store() *hfad.Store { return s.st }

// admit takes an in-flight slot, or fails with ErrBusy.
func (s *Server) admit() (func(), error) {
	select {
	case s.inflight <- struct{}{}:
		s.admitted.Inc()
		return func() { <-s.inflight }, nil
	default:
		s.rejectedInflight.Inc()
		return nil, ErrBusy
	}
}

// --- transport-agnostic op layer ---

// batch runs one request's writes as its own Store.Batch: an error from
// fn rolls back everything fn did. Concurrent requests share device
// syncs through the WAL's group commit, the only cross-connection
// fan-in.
func (s *Server) batch(fn func(*hfad.Batch) error) error {
	s.writes.Inc()
	return s.st.Batch(fn)
}

// applyCreate stages one CreateReq inside a batch and fills resp.
func applyCreate(b *hfad.Batch, req *CreateReq, resp *CreateResp) error {
	owner := req.Owner
	if owner == "" {
		owner = "hfadd"
	}
	obj, err := b.CreateObject(owner)
	if err != nil {
		return err
	}
	defer obj.Close()
	var size uint64
	if len(req.Data) > 0 {
		if size, err = b.AppendN(obj, req.Data); err != nil {
			return err
		}
	}
	for _, tv := range req.Tags {
		if err := b.Tag(obj.OID(), tv.Tag, tv.Value); err != nil {
			return err
		}
	}
	if req.Index {
		if err := b.IndexContent(obj.OID()); err != nil {
			return err
		}
	}
	resp.OID = uint64(obj.OID())
	resp.Size = size
	return nil
}

// Create makes one object (with optional content and names) in one
// transaction: if any part fails, nothing of it remains.
func (s *Server) Create(req *CreateReq) (*CreateResp, error) {
	if len(req.Data) > MaxDataBytes {
		return nil, fmt.Errorf("%w: data %d bytes > max %d", ErrBadRequest, len(req.Data), MaxDataBytes)
	}
	var resp CreateResp
	if err := s.batch(func(b *hfad.Batch) error { return applyCreate(b, req, &resp) }); err != nil {
		return nil, err
	}
	return &resp, nil
}

// applyAppend stages one AppendReq inside a batch.
func applyAppend(b *hfad.Batch, st *hfad.Store, req *AppendReq, resp *AppendResp) error {
	obj, err := st.OpenObject(hfad.OID(req.OID))
	if err != nil {
		return err
	}
	defer obj.Close()
	// AppendN's return is the size at the moment this append landed —
	// obj.Size() here could already include a concurrent later append.
	size, err := b.AppendN(obj, req.Data)
	if err != nil {
		return err
	}
	resp.Size = size
	return nil
}

// Append extends an existing object in one transaction.
func (s *Server) Append(req *AppendReq) (*AppendResp, error) {
	if len(req.Data) > MaxDataBytes {
		return nil, fmt.Errorf("%w: data %d bytes > max %d", ErrBadRequest, len(req.Data), MaxDataBytes)
	}
	var resp AppendResp
	if err := s.batch(func(b *hfad.Batch) error { return applyAppend(b, s.st, req, &resp) }); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Read returns n bytes at off of the object (n capped at MaxReadBytes).
func (s *Server) Read(oid uint64, off, n uint64) ([]byte, error) {
	if n == 0 || n > MaxReadBytes {
		n = MaxReadBytes
	}
	obj, err := s.st.OpenObject(hfad.OID(oid))
	if err != nil {
		return nil, err
	}
	defer obj.Close()
	if size := obj.Size(); off >= size {
		return nil, nil
	} else if off+n > size {
		n = size - off
	}
	buf := make([]byte, n)
	got, err := obj.ReadAt(buf, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf[:got], nil
}

// Stat returns object metadata.
func (s *Server) Stat(oid uint64) (*StatResp, error) {
	m, err := s.st.Stat(hfad.OID(oid))
	if err != nil {
		return nil, err
	}
	return &StatResp{
		OID: uint64(m.OID), Size: m.Size, Mode: m.Mode,
		Owner: m.Owner, Mtime: m.Mtime, Ctime: m.Ctime,
	}, nil
}

// Tag adds one name.
func (s *Server) Tag(req *TagReq) error {
	s.writes.Inc()
	return s.st.Tag(hfad.OID(req.OID), req.Tag, req.Value)
}

// Untag removes one name.
func (s *Server) Untag(req *TagReq) error {
	return s.st.Untag(hfad.OID(req.OID), req.Tag, req.Value)
}

// Names lists an object's names.
func (s *Server) Names(oid uint64) (*NamesResp, error) {
	names, err := s.st.Names(hfad.OID(oid))
	if err != nil {
		return nil, err
	}
	resp := &NamesResp{Names: make([]TagPair, 0, len(names))}
	for _, tv := range names {
		resp.Names = append(resp.Names, TagPair{Tag: tv.Tag, Value: string(tv.Value)})
	}
	return resp, nil
}

// Delete destroys an object and all its names.
func (s *Server) Delete(oid uint64) error {
	return s.st.DeleteObject(hfad.OID(oid))
}

// Find resolves a naming vector with pagination.
func (s *Server) Find(req *FindReq) (*OIDsResp, error) {
	if len(req.Pairs) == 0 {
		return nil, fmt.Errorf("%w: find needs at least one pair", ErrBadRequest)
	}
	pairs := make([]hfad.TagValue, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = hfad.TV(p.Tag, p.Value)
	}
	ids, err := s.st.FindPage(hfad.Page{Limit: req.Page.Limit, After: hfad.OID(req.Page.After)}, pairs...)
	if err != nil {
		return nil, err
	}
	return oidsResp(ids, req.Page.Limit), nil
}

// Query evaluates a boolean query tree with pagination.
func (s *Server) Query(req *QueryReq) (*OIDsResp, error) {
	q, err := req.Query.ToQuery()
	if err != nil {
		return nil, err
	}
	ids, err := s.st.QueryPage(q, hfad.Page{Limit: req.Page.Limit, After: hfad.OID(req.Page.After)})
	if err != nil {
		return nil, err
	}
	return oidsResp(ids, req.Page.Limit), nil
}

// Search is a full-text conjunction.
func (s *Server) Search(terms []string, page PageSpec) (*OIDsResp, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("%w: search needs at least one term", ErrBadRequest)
	}
	pairs := make([]hfad.TagValue, len(terms))
	for i, t := range terms {
		pairs[i] = hfad.TV(hfad.TagFulltext, t)
	}
	ids, err := s.st.FindPage(hfad.Page{Limit: page.Limit, After: hfad.OID(page.After)}, pairs...)
	if err != nil {
		return nil, err
	}
	return oidsResp(ids, page.Limit), nil
}

// Explain profiles a conjunction and returns the executed plan.
func (s *Server) Explain(req *FindReq) (*ExplainResp, error) {
	if len(req.Pairs) == 0 {
		return nil, fmt.Errorf("%w: explain needs at least one pair", ErrBadRequest)
	}
	kids := make([]hfad.Query, len(req.Pairs))
	for i, p := range req.Pairs {
		kids[i] = hfad.Term{Tag: p.Tag, Value: []byte(p.Value)}
	}
	ids, steps, err := s.st.Profile(hfad.And{Kids: kids}, hfad.Page{Limit: req.Page.Limit, After: hfad.OID(req.Page.After)})
	if err != nil {
		return nil, err
	}
	resp := &ExplainResp{OIDs: toU64(ids)}
	for _, st := range steps {
		resp.Steps = append(resp.Steps, PlanStep{
			Rendered: st.Rendered, Estimate: st.Estimate,
			Negated: st.Negated, Seeks: st.Seeks, Steps: st.Steps,
		})
	}
	return resp, nil
}

// Batch runs every item as one transaction, all or nothing: the first
// item that fails rolls the whole batch back, and its error, prefixed
// with the item's index, maps to the status that item alone would get.
func (s *Server) Batch(req *BatchReq) (*BatchResp, error) {
	if len(req.Items) == 0 || len(req.Items) > MaxBatchItems {
		return nil, fmt.Errorf("%w: batch wants 1..%d items, got %d", ErrBadRequest, MaxBatchItems, len(req.Items))
	}
	var total int
	for i := range req.Items {
		it := &req.Items[i]
		n := 0
		if it.Create != nil {
			n, total = n+1, total+len(it.Create.Data)
		}
		if it.Append != nil {
			n, total = n+1, total+len(it.Append.Data)
		}
		if it.Tag != nil {
			n++
		}
		if it.Index != nil {
			n++
		}
		if n != 1 {
			return nil, fmt.Errorf("%w: batch item %d must set exactly one op", ErrBadRequest, i)
		}
	}
	if total > MaxDataBytes {
		return nil, fmt.Errorf("%w: batch payload %d bytes > max %d", ErrBadRequest, total, MaxDataBytes)
	}
	resp := &BatchResp{Results: make([]BatchItemResult, len(req.Items))}
	err := s.batch(func(b *hfad.Batch) error {
		for i := range req.Items {
			it, res := &req.Items[i], &resp.Results[i]
			var err error
			switch {
			case it.Create != nil:
				var cr CreateResp
				if err = applyCreate(b, it.Create, &cr); err == nil {
					res.OID, res.Size = cr.OID, cr.Size
				}
			case it.Append != nil:
				var ar AppendResp
				if err = applyAppend(b, s.st, it.Append, &ar); err == nil {
					res.OID, res.Size = it.Append.OID, ar.Size
				}
			case it.Tag != nil:
				err = b.Tag(hfad.OID(it.Tag.OID), it.Tag.Tag, it.Tag.Value)
				res.OID = it.Tag.OID
			case it.Index != nil:
				err = b.IndexContent(hfad.OID(*it.Index))
				res.OID = *it.Index
			}
			if err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func oidsResp(ids []hfad.OID, limit int) *OIDsResp {
	resp := &OIDsResp{OIDs: toU64(ids)}
	if limit > 0 && len(ids) == limit {
		resp.More = true
		resp.NextAfter = uint64(ids[len(ids)-1])
	}
	return resp
}

func toU64(ids []hfad.OID) []uint64 {
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

// --- HTTP adapter ---

// Handler returns the HTTP/JSON surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.instrument("admin", s.handleMetrics))
	mux.Handle("GET /debug/stats", s.instrument("admin", s.handleDebugStats))

	mux.Handle("POST /v1/objects", s.instrument("write", s.handleCreate))
	mux.Handle("GET /v1/objects/{oid}", s.instrument("read", s.handleStat))
	mux.Handle("DELETE /v1/objects/{oid}", s.instrument("write", s.handleDelete))
	mux.Handle("POST /v1/objects/{oid}/append", s.instrument("write", s.handleAppend))
	mux.Handle("GET /v1/objects/{oid}/read", s.instrument("read", s.handleRead))
	mux.Handle("GET /v1/objects/{oid}/names", s.instrument("read", s.handleNames))
	mux.Handle("POST /v1/objects/{oid}/tags", s.instrument("write", s.handleTag))
	mux.Handle("DELETE /v1/objects/{oid}/tags", s.instrument("write", s.handleUntag))

	mux.Handle("POST /v1/find", s.instrument("query", s.handleFind))
	mux.Handle("POST /v1/query", s.instrument("query", s.handleQuery))
	mux.Handle("POST /v1/explain", s.instrument("query", s.handleExplain))
	mux.Handle("GET /v1/search", s.instrument("query", s.handleSearch))
	mux.Handle("POST /v1/batch", s.instrument("write", s.handleBatch))
	return mux
}

// HealthResp is the /healthz body.
type HealthResp struct {
	Status             string `json:"status"` // "ok" or "degraded"
	Degraded           bool   `json:"degraded"`
	WALWedged          bool   `json:"wal_wedged"`
	CheckpointFailures int64  `json:"checkpoint_failures"`
	CorruptReads       int64  `json:"corrupt_reads"`
}

// handleHealthz reports liveness and fault state: 200 while the store is
// fully operational, 503 while it is degraded (read-only: its last
// checkpoint failed) so load balancers stop routing writes — reads keep
// being served on the data endpoints either way. The probe itself retries
// the checkpoint once the store's backoff has elapsed (Store.Health), so
// a polled idle store heals. No admission slot: health probes must answer
// under overload.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.st.Health()
	resp := HealthResp{
		Status:             "ok",
		Degraded:           h.Degraded,
		WALWedged:          h.WALWedged,
		CheckpointFailures: h.CheckpointFailures,
		CorruptReads:       h.CorruptReads,
	}
	code := http.StatusOK
	if h.Degraded {
		resp.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// instrument wraps a handler with admission control and latency
// accounting. Every API request takes one in-flight slot; rejections
// never touch the store.
func (s *Server) instrument(class string, fn func(http.ResponseWriter, *http.Request)) http.Handler {
	h := s.latency[class]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := s.admit()
		if err != nil {
			writeErr(w, err)
			return
		}
		defer release()
		t0 := time.Now()
		fn(w, r)
		h.Observe(time.Since(t0).Nanoseconds())
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateReq
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := s.Create(&req)
	writeResult(w, resp, err)
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	oid, ok := pathOID(w, r)
	if !ok {
		return
	}
	var req AppendReq
	if !readJSON(w, r, &req) {
		return
	}
	req.OID = oid
	resp, err := s.Append(&req)
	writeResult(w, resp, err)
}

func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	oid, ok := pathOID(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	off, _ := strconv.ParseUint(q.Get("off"), 10, 64)
	n, _ := strconv.ParseUint(q.Get("n"), 10, 64)
	data, err := s.Read(oid, off, n)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (s *Server) handleStat(w http.ResponseWriter, r *http.Request) {
	oid, ok := pathOID(w, r)
	if !ok {
		return
	}
	resp, err := s.Stat(oid)
	writeResult(w, resp, err)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	oid, ok := pathOID(w, r)
	if !ok {
		return
	}
	if err := s.Delete(oid); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleTag(w http.ResponseWriter, r *http.Request) {
	s.tagCommon(w, r, s.Tag)
}

func (s *Server) handleUntag(w http.ResponseWriter, r *http.Request) {
	s.tagCommon(w, r, s.Untag)
}

func (s *Server) tagCommon(w http.ResponseWriter, r *http.Request, op func(*TagReq) error) {
	oid, ok := pathOID(w, r)
	if !ok {
		return
	}
	var req TagReq
	if !readJSON(w, r, &req) {
		return
	}
	req.OID = oid
	if err := op(&req); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleNames(w http.ResponseWriter, r *http.Request) {
	oid, ok := pathOID(w, r)
	if !ok {
		return
	}
	resp, err := s.Names(oid)
	writeResult(w, resp, err)
}

func (s *Server) handleFind(w http.ResponseWriter, r *http.Request) {
	var req FindReq
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := s.Find(&req)
	writeResult(w, resp, err)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryReq
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := s.Query(&req)
	writeResult(w, resp, err)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req FindReq
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := s.Explain(&req)
	writeResult(w, resp, err)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	terms := strings.Fields(q.Get("q"))
	var page PageSpec
	page.Limit, _ = strconv.Atoi(q.Get("limit"))
	page.After, _ = strconv.ParseUint(q.Get("after"), 10, 64)
	resp, err := s.Search(terms, page)
	writeResult(w, resp, err)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchReq
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := s.Batch(&req)
	writeResult(w, resp, err)
}

// --- HTTP plumbing ---

func pathOID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	oid, err := strconv.ParseUint(r.PathValue("oid"), 10, 64)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: bad oid %q", ErrBadRequest, r.PathValue("oid")))
		return 0, false
	}
	return oid, true
}

func readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, (MaxDataBytes+MaxDataBytes/2)+1<<20))
	if err := dec.Decode(into); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return false
	}
	return true
}

func writeResult(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// Backoff hints, single source for both the Retry-After header and the
// JSON body's retry_after_ms so clients honoring either back off the
// same amount. 429 is transient admission pressure — a sub-second hint —
// and the Retry-After header cannot express less than one second, so
// busy responses carry only the body hint.
const (
	busyRetryMS     = 50
	shutdownRetryMS = 1000
)

// writeErr maps op-layer errors onto HTTP statuses: admission pressure
// is 429 with a backoff hint, shutdown is 503, lookups 404, malformed
// requests and names the indexes reject 400.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	retryMS := 0
	switch {
	case errors.Is(err, ErrBusy):
		code = http.StatusTooManyRequests
		retryMS = busyRetryMS
	case errors.Is(err, ErrShutdown), errors.Is(err, core.ErrClosed):
		code = http.StatusServiceUnavailable
		retryMS = shutdownRetryMS
		w.Header().Set("Retry-After", strconv.Itoa(shutdownRetryMS/1000))
	case errors.Is(err, core.ErrReadOnly):
		// Degraded (read-only) store: a later write, or a health probe,
		// after the store's backoff retries the failed checkpoint, and
		// the write may succeed once it does, so advertise a retry.
		code = http.StatusServiceUnavailable
		retryMS = shutdownRetryMS
		w.Header().Set("Retry-After", strconv.Itoa(shutdownRetryMS/1000))
	case errors.Is(err, ErrBadRequest), errors.Is(err, core.ErrQuery),
		errors.Is(err, index.ErrUnknownTag), errors.Is(err, index.ErrBadValue):
		code = http.StatusBadRequest
	case errors.Is(err, osd.ErrNotFound), errors.Is(err, core.ErrNotFound):
		code = http.StatusNotFound
	}
	writeJSON(w, code, ErrorResp{Error: err.Error(), RetryAfterMS: retryMS})
}

// --- lifecycle ---

// Serve runs an http.Server on ln until Shutdown. It returns the error
// from http.Server.Serve (http.ErrServerClosed after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrShutdown
	}
	s.httpSrv = hs
	s.mu.Unlock()
	return hs.Serve(ln)
}

// Shutdown stops the server gracefully in two steps:
//
//  1. http.Server.Shutdown stops the listener and waits for in-flight
//     handlers, so every accepted request gets its true commit result.
//  2. Store.Close waits for any bracket still running (each holds the
//     volume's lifecycle lock shared), checkpoints and marks the image
//     clean. A write that arrives later fails with core.ErrClosed (503).
//
// Acked writes were already WAL-durable at ack time; the ordering is
// about never failing an accepted request spuriously.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	hs := s.httpSrv
	s.mu.Unlock()

	var err error
	if hs != nil {
		err = hs.Shutdown(ctx)
	}
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}
