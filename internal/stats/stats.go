// Package stats provides atomic counters, traversal accounting, and
// aligned-table rendering shared by the hFAD experiment harness.
//
// All counters are safe for concurrent use. Experiments snapshot counter
// groups before and after a run and report the delta, so long-lived volumes
// can host many experiments without cross-talk.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Store sets the counter to n. Intended for resets in tests.
func (c *Counter) Store(n int64) { c.v.Store(n) }

// Group is a named collection of counters, created on demand.
// It is the unit of snapshotting for experiments.
type Group struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewGroup returns an empty counter group.
func NewGroup() *Group {
	return &Group{counters: make(map[string]*Counter)}
}

// Counter returns the counter with the given name, creating it if needed.
func (g *Group) Counter(name string) *Counter {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.counters[name]
	if !ok {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Snapshot returns a copy of all counter values at this instant.
func (g *Group) Snapshot() map[string]int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]int64, len(g.counters))
	for name, c := range g.counters {
		out[name] = c.Load()
	}
	return out
}

// Delta returns Snapshot() minus the given baseline. Counters absent from
// the baseline are reported at their full value.
func (g *Group) Delta(base map[string]int64) map[string]int64 {
	cur := g.Snapshot()
	for name, v := range base {
		if _, ok := cur[name]; ok {
			cur[name] -= v
		} else {
			cur[name] = -v
		}
	}
	return cur
}

// histBuckets is the number of power-of-two histogram buckets. Bucket i
// covers values in [2^i, 2^(i+1)); bucket 0 also takes 0. With 40
// buckets a nanosecond-valued histogram spans sub-µs to ~18 minutes.
const histBuckets = 40

// Histogram is a lock-free power-of-two histogram. Writers call Observe
// concurrently; scrapers call Snapshot at any time. Buckets are atomics,
// so a snapshot is never torn at the bucket level (counts observed
// mid-burst may be split across buckets, which is inherent to scraping a
// live histogram and fine for latency reporting).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (typically nanoseconds).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := 0
	for bound := int64(2); i < histBuckets-1 && v >= bound; i, bound = i+1, bound<<1 {
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [histBuckets]int64
}

// Snapshot copies the histogram counters.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// BucketBound returns the exclusive upper bound of bucket i (2^(i+1)).
func BucketBound(i int) int64 { return int64(1) << uint(i+1) }

// Mean returns the average observed value, or 0 with no observations.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-th quantile (q in [0,1]) from the bucket
// counts, returning the upper bound of the bucket holding that rank.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen > rank {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}

// Table renders aligned experiment output. Rows are added in order;
// the renderer computes column widths over the whole table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; each cell is rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows reports the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders a float compactly: integers without decimals,
// small magnitudes with enough precision to be meaningful.
func FormatFloat(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100 || v <= -100:
		return fmt.Sprintf("%.1f", v)
	case v >= 1 || v <= -1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// SortedKeys returns the keys of m in sorted order; used for deterministic
// rendering of snapshot maps.
func SortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
