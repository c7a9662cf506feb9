// Package repro's root benchmarks are the measurements that have no
// runner elsewhere: the streaming query engine against the slice
// evaluator it replaced (E11), pagination against full materialization
// (E12), and two DESIGN.md ablations. Every other paper exhibit — T1,
// F1 and E1–E9 — is defined once, as an internal/bench runner:
// `go run ./cmd/hfadbench` prints them and internal/bench's
// TestAllExperimentsSmoke runs them all. The accepted end-to-end
// benchmark is `go run ./benchmark` (see benchmark/README.md).
package repro

import (
	"fmt"
	"testing"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/hierfs"
	"repro/internal/index"
	"repro/internal/workload"
)

// newStore builds an hFAD volume for benchmarks.
func newStore(b *testing.B, opts hfad.Options) *hfad.Store {
	b.Helper()
	st, err := hfad.Create(hfad.NewMemDevice(1<<15), opts)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func newHier(b *testing.B) *hierfs.FS {
	b.Helper()
	fs, err := hierfs.Mkfs(blockdev.NewMem(1<<15, blockdev.DefaultBlockSize), hierfs.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return fs
}

// BenchmarkE11_SelectiveAnd is the streaming-engine exhibit: a
// conjunction of a broad tag (many objects) with a selective one (a
// handful). The slice baseline reproduces the old evaluator — materialize
// both posting lists, intersect — while the iterator engine seeks the
// broad index once per candidate. The oids-materialized/op metric counts
// how many OIDs each strategy pulled out of the indexes.
func BenchmarkE11_SelectiveAnd(b *testing.B) {
	const broad = 20000
	const rareEvery = 2000                                           // 10 selective hits
	st, err := hfad.Create(hfad.NewMemDevice(1<<17), hfad.Options{}) // 512 MiB
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < broad; i++ {
		obj, err := st.CreateObject("u")
		if err != nil {
			b.Fatal(err)
		}
		oid := obj.OID()
		obj.Close()
		if err := st.Tag(oid, hfad.TagUDef, "common"); err != nil {
			b.Fatal(err)
		}
		if i%rareEvery == 0 {
			if err := st.Tag(oid, hfad.TagUDef, "rare"); err != nil {
				b.Fatal(err)
			}
		}
	}
	q := hfad.And{Kids: []hfad.Query{
		hfad.Term{Tag: hfad.TagUDef, Value: []byte("common")},
		hfad.Term{Tag: hfad.TagUDef, Value: []byte("rare")},
	}}

	b.Run("slices", func(b *testing.B) {
		udef, err := st.Volume().Registry().Get(hfad.TagUDef)
		if err != nil {
			b.Fatal(err)
		}
		var materialized int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The pre-iterator evaluator: full Lookup per term, then
			// slice intersection.
			common, err := udef.Lookup([]byte("common"))
			if err != nil {
				b.Fatal(err)
			}
			rare, err := udef.Lookup([]byte("rare"))
			if err != nil {
				b.Fatal(err)
			}
			ids := index.IntersectOIDs(rare, common)
			if len(ids) != broad/rareEvery {
				b.Fatalf("got %d ids", len(ids))
			}
			materialized += int64(len(common) + len(rare))
		}
		b.ReportMetric(float64(materialized)/float64(b.N), "oids-materialized/op")
	})
	b.Run("iterators", func(b *testing.B) {
		var materialized int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids, steps, err := st.Profile(q, hfad.Page{})
			if err != nil {
				b.Fatal(err)
			}
			if len(ids) != broad/rareEvery {
				b.Fatalf("got %d ids", len(ids))
			}
			for _, s := range steps {
				materialized += s.Steps
			}
		}
		b.ReportMetric(float64(materialized)/float64(b.N), "oids-materialized/op")
	})
	b.Run("iterators-limit1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ids, err := st.QueryPage(q, hfad.Page{Limit: 1})
			if err != nil || len(ids) != 1 {
				b.Fatalf("page = %v, %v", ids, err)
			}
		}
	})
}

// BenchmarkE12_PaginatedQuery pages through a broad tag with Limit/After
// versus materializing the full result each time — the "directory too big
// to list" workload a search-based namespace must serve.
func BenchmarkE12_PaginatedQuery(b *testing.B) {
	const n = 10000
	const pageSize = 20
	st := newStore(b, hfad.Options{})
	defer st.Close()
	for i := 0; i < n; i++ {
		obj, err := st.CreateObject("u")
		if err != nil {
			b.Fatal(err)
		}
		oid := obj.OID()
		obj.Close()
		if err := st.Tag(oid, hfad.TagUDef, "bulk"); err != nil {
			b.Fatal(err)
		}
	}
	term := hfad.Term{Tag: hfad.TagUDef, Value: []byte("bulk")}
	b.Run("full-materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ids, err := st.Query(term)
			if err != nil || len(ids) != n {
				b.Fatalf("query = %d, %v", len(ids), err)
			}
		}
	})
	b.Run("first-page", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ids, err := st.QueryPage(term, hfad.Page{Limit: pageSize})
			if err != nil || len(ids) != pageSize {
				b.Fatalf("page = %d, %v", len(ids), err)
			}
		}
	})
}

// BenchmarkAblation_MaxExtentBytes measures the DESIGN.md decision that
// bounds extents (and therefore the copy a mid-extent split performs):
// smaller caps mean cheaper splits but more extents to manage.
func BenchmarkAblation_MaxExtentBytes(b *testing.B) {
	const objectSize = 4 << 20
	for _, maxExtent := range []uint32{64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("cap-%dK", maxExtent>>10), func(b *testing.B) {
			st := newStore(b, hfad.Options{MaxExtentBytes: maxExtent})
			defer st.Close()
			obj, err := st.CreateObject("u")
			if err != nil {
				b.Fatal(err)
			}
			if err := obj.Append(workload.NewRng(9).Bytes(objectSize)); err != nil {
				b.Fatal(err)
			}
			rng := workload.NewRng(11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%2048 == 0 {
					b.StopTimer()
					if err := obj.Truncate(0); err != nil {
						b.Fatal(err)
					}
					if err := obj.Append(workload.NewRng(9).Bytes(objectSize)); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				// Insert at a random unaligned offset so splits happen.
				off := uint64(rng.IntN(objectSize-1)) | 1
				if err := obj.InsertAt(off, []byte("x")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_RenameSubtree measures the DESIGN.md decision to key
// the POSIX index by full path: renaming a directory rewrites every
// descendant's names, where the inode-based hierarchy edits two directory
// entries. The flip side of that trade is hFAD's O(1) path lookup.
func BenchmarkAblation_RenameSubtree(b *testing.B) {
	const files = 64
	b.Run("hFAD-posix", func(b *testing.B) {
		st := newStore(b, hfad.Options{})
		defer st.Close()
		pfs, err := st.POSIX()
		if err != nil {
			b.Fatal(err)
		}
		if err := pfs.MkdirAll("/tree0/sub", 0o755); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < files; i++ {
			if err := pfs.WriteFile(fmt.Sprintf("/tree0/sub/f%02d", i), []byte("x"), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pfs.Rename(fmt.Sprintf("/tree%d", i), fmt.Sprintf("/tree%d", i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hierfs", func(b *testing.B) {
		fs := newHier(b)
		if err := fs.MkdirAll("/tree0/sub", 0o755); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < files; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/tree0/sub/f%02d", i), []byte("x"), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fs.Rename(fmt.Sprintf("/tree%d", i), fmt.Sprintf("/tree%d", i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
