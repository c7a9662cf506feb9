package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// spanKind names a boundary the harness records a span at: a whole
// operation, one public library call inside it, or one device call.
type spanKind uint8

const (
	spOp spanKind = iota // arg = opClass
	spFind
	spFindPage
	spSearch     // FULLTEXT two-term phrase
	spSearchUniq // FULLTEXT unique term
	spNames
	spOpen
	spRead
	spStat
	spAppend
	spTag
	spBatch
	spBatchFn // the Batch callback: staging, as opposed to commit
	spCreate
	spIndexContent
	spIndexDrain // the Find terms drained at the index layer
	spProbeFind  // the Find of a probe operation, the other side of spIndexDrain
	spProfile
	spDevRead
	spDevWrite
	spDevSync
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "Store.Find", "Store.FindPage", "Store.Find(FULLTEXT phrase)", "Store.Find(FULLTEXT term)", "Store.Names",
	"Store.OpenObject", "Object.ReadAt", "Store.Stat", "Object.Append", "Store.Tag",
	"Store.Batch", "Batch.fn", "Batch.CreateObject", "Batch.IndexContent",
	"index.Drain", "Store.Find(probe)", "Store.Profile", "dev.Read", "dev.Write", "dev.Sync",
}

// background is the parent of device spans no operation's interval
// contains: the checkpointer's writes between two operations.
const background = -1

type span struct {
	start, end int64 // ns since the recorder started
	parent     int32
	kind       spanKind
	arg        uint8
}

// maxSpans bounds the in-memory trace (24 B each); later spans are counted
// as dropped. A traced run records about a million.
const maxSpans = 1 << 21

// recorder keeps spans in memory until the run ends. The client goroutine
// and the store's checkpointer (through the device) both add to it.
type recorder struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
	traced  int64 // ns during which tracing was switched on
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// open starts a span and returns its id for close and for its children.
func (r *recorder) open(kind spanKind, arg uint8, parent int32) int32 {
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return background
	}
	r.spans = append(r.spans, span{start: start, parent: parent, kind: kind, arg: arg})
	return int32(len(r.spans) - 1)
}

func (r *recorder) close(id int32) {
	end := r.now()
	if id == background {
		return
	}
	r.mu.Lock()
	r.spans[id].end = end
	r.mu.Unlock()
}

// add records a finished span whose parent is not known yet (device calls).
func (r *recorder) add(kind spanKind, start int64) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{start: start, end: end, parent: background, kind: kind})
}

// resolve parents every device span to the operation whose interval
// contains its start. One client issues operations back to back, so the
// op spans are disjoint and already in start order.
func (r *recorder) resolve() {
	var ops []int32
	for i, s := range r.spans {
		if s.kind == spOp {
			ops = append(ops, int32(i))
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.kind < spDevRead {
			continue
		}
		j := sort.Search(len(ops), func(j int) bool { return r.spans[ops[j]].start > s.start }) - 1
		if j >= 0 && s.start <= r.spans[ops[j]].end {
			s.parent = ops[j]
		}
	}
}

// durations returns the length in ns of every span of one kind.
func (r *recorder) durations(kind spanKind) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.kind == kind {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// medianUS is the median length of a kind's spans in microseconds, 0 when
// the run recorded none.
func (r *recorder) medianUS(kind spanKind) float64 { return median(r.durations(kind)) / 1e3 }

// deviceNS sums the time spent inside device calls.
func (r *recorder) deviceNS() int64 {
	var sum int64
	for _, s := range r.spans {
		if s.kind >= spDevRead {
			sum += s.end - s.start
		}
	}
	return sum
}

// batchSplit returns, for every Store.Batch span, the time outside its
// callback (commit: index multi-puts, WAL append, sync) and the time
// inside it (staging).
func (r *recorder) batchSplit() (commit, stage []float64) {
	fn := make(map[int32]int64)
	for _, s := range r.spans {
		if s.kind == spBatchFn {
			fn[s.parent] = s.end - s.start
		}
	}
	for i, s := range r.spans {
		if s.kind == spBatch {
			commit = append(commit, float64(s.end-s.start-fn[int32(i)]))
			stage = append(stage, float64(fn[int32(i)]))
		}
	}
	return commit, stage
}

// dump writes the trace as tab-separated text: one span per line, parents
// by id, times in ns since the recorder started.
func (r *recorder) dump(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# spans=%d dropped=%d traced_ns=%d parent=-1 means background\n", len(r.spans), r.dropped, r.traced)
	fmt.Fprintln(w, "id\tparent\tname\targ\tstart_ns\tdur_ns")
	buf := make([]byte, 0, 96)
	for i, s := range r.spans {
		buf = strconv.AppendInt(buf[:0], int64(i), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, '\t')
		buf = append(buf, spanNames[s.kind]...)
		buf = append(buf, '\t')
		if s.kind == spOp {
			buf = append(buf, classNames[s.arg]...)
		} else {
			buf = append(buf, '-')
		}
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, s.end-s.start, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return w.Flush()
}
