package core

import (
	"fmt"
	"testing"

	"repro/internal/extent"
	"repro/internal/index"
	"repro/internal/osd"
)

// TestLogBytesPerSmallEdit holds physiological logging to its byte
// count: a small naming edit, and a 64-byte append or overwrite on an
// object whose extent tree spans several nodes, each log the logical
// mutation, a few hundred bytes, not images of the 4 KiB pages they
// touch. The page-image pipeline this replaced logged 16 617.8 B per
// tag (BENCH_pr4.json) and 20 678 / 12 420 B per 64-byte append /
// overwrite (BENCH_pr5.json). Rewriting the tree header on every edit,
// size and extent count included, cost another 77 B per 64-byte edit.
func TestLogBytesPerSmallEdit(t *testing.T) {
	const ops = 240
	bytesPerOp := func(t *testing.T, v *Volume, edit func(i int) error) float64 {
		t.Helper()
		before := v.WAL().Stats().BytesLogged
		for i := 0; i < ops; i++ {
			if err := edit(i); err != nil {
				t.Fatal(err)
			}
		}
		return float64(v.WAL().Stats().BytesLogged-before) / ops
	}

	t.Run("tag", func(t *testing.T) {
		v, _ := newVolume(t, Options{IndexShards: 1, WALBlocks: 4096})
		defer v.Close()
		oids := make([]OID, 16)
		for i := range oids {
			oids[i] = mustCreateObject(t, v, "w", "")
		}
		got := bytesPerOp(t, v, func(i int) error {
			return v.AddName(oids[i%len(oids)], index.TagUDef, []byte(fmt.Sprintf("v:%d", i)))
		})
		t.Logf("%.1f B/op", got)
		if got > 256 {
			t.Errorf("a tag logs %.1f B, want ≤ 256", got)
		}
	})

	const edit = 64
	for _, tc := range []struct {
		name string
		op   func(obj *osd.Object, p []byte, i int) error
	}{
		{"append-64", func(obj *osd.Object, p []byte, _ int) error { return obj.Append(p) }},
		{"overwrite-64", func(obj *osd.Object, p []byte, i int) error {
			return obj.WriteAt(p, uint64(i)*8191%(obj.Size()-edit))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, _ := newVolume(t, Options{WALBlocks: 4096, ExtentConfig: extent.Config{MaxExtentBytes: 4096}})
			defer v.Close()
			// ~300 extents: the tree has split past one leaf, so a small
			// edit walks several levels.
			var obj *osd.Object
			err := v.Batch(func(b *Batch) error {
				var err error
				if obj, err = b.CreateObject("w"); err != nil {
					return err
				}
				chunk := make([]byte, 4096)
				for j := 0; j < 300; j++ {
					chunk[0] = byte(j)
					if err := b.Append(obj, chunk); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer obj.Close()
			p := make([]byte, edit)
			got := bytesPerOp(t, v, func(i int) error {
				p[0] = byte(i)
				return tc.op(obj, p, i)
			})
			t.Logf("%.1f B/op over %d extents", got, obj.ExtentCount())
			if got > 384 {
				t.Errorf("a 64-byte edit logs %.1f B, want ≤ 384", got)
			}
		})
	}
}
