package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/hfad"
)

// smokeConfig is what `-scale smoke -trace 1` runs, with the spans sent to
// a directory of the test's. A traced run computes the end-to-end numbers
// as well, so one run covers every name of the contract.
func smokeConfig(t *testing.T, name string) config {
	t.Helper()
	sp := specByName(name)
	if sp == nil {
		t.Fatalf("no workload %q", name)
	}
	cfg := newConfig(*sp, 1, 15, true, "smoke")
	cfg.outDir = t.TempDir()
	return cfg
}

// smokeStore sets a smoke-scale workload up on a device the test may put
// a faulty one on top of, and releases everything but the store (a test
// that crashes it cannot close it) when the test ends.
func smokeStore(t *testing.T, cfg *config) (*device, *hfad.Store, *executor) {
	t.Helper()
	dev, st, x, err := setUp(cfg, newModel(cfg.seed, &cfg.spec))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := dev.free(); err != nil {
			t.Error(err)
		}
	})
	return dev, st, x
}

// TestSmoke runs all four workloads at smoke scale and holds the output to
// BENCHMARK.json: every workload and metric named there is produced, with
// its unit, no operation fails, and the last line is the JSON the driver
// reads.
func TestSmoke(t *testing.T) {
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(specs))
	}
	for _, wl := range c.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			cfg := smokeConfig(t, wl.Name)
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.failures)
			}
			for _, group := range []struct {
				specs []metricSpec
				got   map[string]metric
			}{{c.EndToEnd, res.endToEnd}, {c.PerLayer, res.layers}} {
				if len(group.got) != len(group.specs) {
					t.Errorf("run produced %d metrics, BENCHMARK.json names %d", len(group.got), len(group.specs))
				}
				for _, m := range group.specs {
					got, ok := group.got[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			}
			for _, m := range c.EndToEnd {
				if res.endToEnd[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", m.Name, res.endToEnd[m.Name].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "spans-"+wl.Name+".tsv")); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}

			var out bytes.Buffer
			if err := emit(&out, &cfg, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", last)
			}
		})
	}
}

// TestSeedDeterminism: on the query workloads the same seed gives the same
// operation stream, the same space use and the same device reads; another
// seed gives another stream. "The same" is to a fraction of a percent:
// Batch.flush walks a Go map of index stores, so two loads of the same
// documents split their index pages in different orders — a few pages more
// or less, other page numbers, and with them other shards of the pager's
// LRU for a node to compete in.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"query_resident", "query_spill"} {
		t.Run(name, func(t *testing.T) {
			once := func(seed uint64) *result {
				cfg := smokeConfig(t, name)
				// 600 operations however slow the machine: the clock must
				// not end the phase.
				cfg.seed, cfg.trace, cfg.spec.rate, cfg.seconds = seed, false, 10, 60
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() || res.ops != int(cfg.spec.rate*cfg.seconds) {
					t.Fatalf("ran %d operations, %d failed: %v", res.ops, res.failed, res.failures)
				}
				return res
			}
			a, b, other := once(7), once(7), once(8)
			if a.streamHash != b.streamHash {
				t.Errorf("same seed, streams %x and %x", a.streamHash, b.streamHash)
			}
			if d := float64(a.devReads-b.devReads) / float64(a.devReads); math.Abs(d) > 0.01 {
				t.Errorf("same seed, %d and %d device reads", a.devReads, b.devReads)
			}
			const space = "stored_bytes_per_user_byte"
			if sa, sb := a.endToEnd[space].Value, b.endToEnd[space].Value; math.Abs(sa-sb)/sa > 0.005 {
				t.Errorf("same seed, %v and %v %s", sa, sb, space)
			}
			if a.streamHash == other.streamHash {
				t.Errorf("seeds 7 and 8 gave the same stream %x", a.streamHash)
			}
		})
	}
}

// TestOracleCatchesWrongResult: the checks against the model have teeth.
func TestOracleCatchesWrongResult(t *testing.T) {
	cfg := smokeConfig(t, "query_resident")
	_, st, x := smokeStore(t, &cfg)
	defer func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}()
	m := x.m
	g := newGen(3, cfg.spec.docs, tailMix)
	for i := 0; i < 5*len(g.slots); i++ {
		x.do(g.next())
	}
	if x.failed != 0 {
		t.Fatalf("honest run failed %d operations: %v", x.failed, x.failures)
	}

	// A store that returned another object for a name, or other bytes for
	// an object, looks to the oracle like a model that expects them.
	m.oids[0], m.oids[1] = m.oids[1], m.oids[0]
	x.do(op{class: opFindRead})
	if x.failed != 1 {
		t.Errorf("swapped objects: %d failures, want 1", x.failed)
	}
	m.oids[0], m.oids[1] = m.oids[1], m.oids[0]
	m.appended[2]++
	x.do(op{class: opList, k: [maxFan]int{2}})
	if x.failed != 2 {
		t.Errorf("missing append: %d failures, want 2", x.failed)
	}
	m.appended[2]--
	if x.verify(); x.failed != 2 {
		t.Errorf("honest readback: %d failures, want 2: %v", x.failed, x.failures)
	}
	m.tagged[3]++
	if x.verify(); x.failed != 3 {
		t.Errorf("readback with a lost name: %d failures, want 3", x.failed)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, tc := range []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"same", []float64{101, 100, 100, 99, 101, 100}, true, "same"},
		{"worse", []float64{115, 116, 114, 115, 117, 113}, true, "worse"},
		{"better", []float64{90, 91, 89, 90, 92, 88}, true, "better"},
		{"higher is better", []float64{85, 86, 84, 85, 87, 83}, false, "worse"},
		{"unresolved", []float64{80, 125, 99, 70, 130, 100}, true, "unresolved"},
	} {
		if _, _, got := verdict(steady, tc.b, tc.lower, 0.10); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
