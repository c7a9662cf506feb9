package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/extent"
	"repro/internal/fulltext"
	"repro/internal/index"
	"repro/internal/osd"
	"repro/internal/pager"
)

// TestCrashDeleteBesideOpenGrowth: a DeleteObject commits while a Batch
// that grew the same object, allocating a run, is still open; then the
// power goes. The delete claims the object's tree, so its commit waits
// until the log holds the batch's records: recovery finds the batch a
// loser and rolls it back around the delete, and the object stays gone,
// with the allocator the reachability walk's and fsck clean. Run with
// 4 KiB extents, where the append allocates a run of its own, and with
// the default extents.
func TestCrashDeleteBesideOpenGrowth(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  extent.Config
	}{
		{"4KiB_extents", extent.Config{MaxExtentBytes: 4096}},
		{"default_extents", extent.Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := blockdev.NewMem(1<<12, blockdev.DefaultBlockSize)
			v, err := Create(mem, Options{WALBlocks: 1024, ExtentConfig: tc.cfg})
			if err != nil {
				t.Fatal(err)
			}
			obj, err := v.OSD.CreateObject("grow", osd.ModeRegular)
			if err != nil {
				t.Fatal(err)
			}
			oid := obj.OID()
			if err := obj.WriteAt(fill(20000, 1), 0); err != nil {
				t.Fatal(err)
			}
			obj.Close()
			if err := v.Sync(); err != nil {
				t.Fatal(err)
			}
			var img *blockdev.MemDevice
			err = v.Batch(func(b *Batch) error {
				o, err := v.OSD.OpenObject(oid)
				if err != nil {
					return err
				}
				defer o.Close()
				if err := b.Append(o, fill(3000, 2)); err != nil {
					return err
				}
				done := make(chan error)
				go func() { done <- v.DeleteObject(oid) }()
				if err := <-done; err != nil {
					return err
				}
				img = crashCopy(t, mem)
				return nil
			})
			if img == nil {
				t.Fatalf("the delete beside the batch failed: %v", err)
			}
			v2 := mustOpenExact(t, img)
			defer v2.Close()
			if _, err := v2.OSD.Stat(oid); !errors.Is(err, osd.ErrNotFound) {
				t.Fatalf("the deleted object is back after recovery (%v; %s)", err, v2.Recovery())
			}
		})
	}
}

// segmentDoc is the text of document i: terms every document shares,
// terms a few share, and forty of its own, so that a segment of a few
// documents spans several leaves.
func segmentDoc(i int) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "doc%d shared group%d", i, i%3)
	for j := 0; j < 40; j++ {
		fmt.Fprintf(&sb, " u%dx%d", i, j)
	}
	return []byte(sb.String())
}

// segmentQueries are the terms the crash tests search for.
var segmentQueries = []string{"shared", "group1", "doc2", "doc30", "doc45", "u3x7", "u44x39"}

// searchAll returns each query's result, rendered.
func searchAll(t *testing.T, v *Volume) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, q := range segmentQueries {
		ids, err := v.Fulltext().Inner().Search(q)
		if err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
		out[q] = fmt.Sprint(ids)
	}
	return out
}

// TestCrashSegmentFlush cuts the power at every device write of one
// operation whose documents fill the buffer, so that it builds a segment
// (btree.Build), and of the checkpoint after it: the segment's pages,
// which go home as they are built and are logged by their sums only, the
// commit, and the checkpoint. A cut before the k-th write leaves what a
// cut at the sync before it leaves, so the writes cover the syncs too. In
// "commit" the operation commits; in "rollback" it fails after its
// flush, and its rollback drops the segment. Every cut reopens with the
// allocator exact and fsck clean, and searches as a volume that never
// crashed does after the operation or before it — after it, once the
// commit was acknowledged; before it, always, when it rolled back.
func TestCrashSegmentFlush(t *testing.T) {
	t.Run("commit", func(t *testing.T) { crashSegmentBuild(t, false, false) })
	t.Run("rollback", func(t *testing.T) { crashSegmentBuild(t, false, true) })
}

// TestCrashSegmentMerge is TestCrashSegmentFlush for an operation whose
// flush makes a level hold one segment more than MaxSegments, so that the
// same operation merges the level into one segment it builds, and drops
// the segments it merged.
func TestCrashSegmentMerge(t *testing.T) {
	t.Run("commit", func(t *testing.T) { crashSegmentBuild(t, true, false) })
	t.Run("rollback", func(t *testing.T) { crashSegmentBuild(t, true, true) })
}

func crashSegmentBuild(t *testing.T, merge, rollback bool) {
	const flushDocs = 8
	opts := Options{WALBlocks: 512, FulltextConfig: fulltext.Config{FlushDocs: flushDocs, MaxSegments: 2}}
	mem := blockdev.NewMem(1<<12, blockdev.DefaultBlockSize)
	v, err := Create(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, v, 6*flushDocs)
	// Committed segments, and an empty buffer. Three flushes fill level 0
	// and merge it into level 1, so the pages of three segments are free
	// again, with sums the sidecar keeps: a build may take them, and
	// recovery must then hold them to what the build wrote. Then one
	// level-0 segment waits beside the operation's flush, or — for the
	// merge — two, a level full.
	pre := 3 * flushDocs
	if merge {
		pre = 5 * flushDocs
	}
	for i := 0; i < pre; i++ {
		if err := v.AddName(oids[i], index.TagFulltext, segmentDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := searchAll(t, v)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	img := mem.Snapshot()
	errRollback := errors.New("the operation fails after its flush")

	// run opens the image and runs the operation and a checkpoint, with
	// the device failing after limit writes (never, when limit < 0). It
	// returns the volume, the writes made and whether the operation was
	// acknowledged.
	run := func(limit int64) (*Volume, int64, bool) {
		if err := mem.RestoreFrom(img); err != nil {
			t.Fatal(err)
		}
		sim := blockdev.NewSim(mem, nil)
		fd := blockdev.NewFault(sim)
		v, err := Open(fd, opts)
		if err != nil {
			t.Fatal(err)
		}
		w0 := sim.Stats().Writes
		if limit >= 0 {
			fd.FailAfterWrites(limit)
		}
		ft0 := v.Fulltext().Inner().Stats()
		err = v.withOp(func(op *pager.Op) error {
			for i := pre; i < pre+flushDocs; i++ {
				if err := v.addNameDeferred(op, oids[i], index.TagFulltext, segmentDoc(i)); err != nil {
					return err
				}
			}
			if rollback {
				return errRollback
			}
			return nil
		})
		acked := err == nil
		if limit < 0 {
			ft := v.Fulltext().Inner().Stats()
			if ft.Flushes != ft0.Flushes+1 || (ft.Compactions > ft0.Compactions) != merge {
				t.Fatalf("the operation flushed %d times and merged %d times (err %v)",
					ft.Flushes-ft0.Flushes, ft.Compactions-ft0.Compactions, err)
			}
		}
		_ = v.Sync()
		fd.Disarm()
		return v, sim.Stats().Writes - w0, acked
	}

	healthy, writes, acked := run(-1)
	if acked == rollback {
		t.Fatalf("on a healthy device the operation was acknowledged: %v", acked)
	}
	after := searchAll(t, healthy)
	if rollback {
		if fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("the rolled-back operation changed the results: %v, want %v", after, before)
		}
		// Limbo drained by the checkpoint: every block the build took is
		// free again.
		healthyFree := healthy.Allocator().FreeBlocks()
		if err := mem.RestoreFrom(img); err != nil {
			t.Fatal(err)
		}
		ref, err := Open(mem, opts)
		if err != nil {
			t.Fatal(err)
		}
		if free := ref.Allocator().FreeBlocks(); free != healthyFree {
			t.Fatalf("the rolled-back build leaked %d blocks", int64(free)-int64(healthyFree))
		}
	} else if fmt.Sprint(after) == fmt.Sprint(before) {
		t.Fatal("the operation changed no result")
	}
	for limit := int64(0); limit <= writes; limit++ {
		_, _, acked := run(limit)
		v := mustOpenExact(t, mem)
		got := searchAll(t, v)
		switch fmt.Sprint(got) {
		case fmt.Sprint(after):
		case fmt.Sprint(before):
			if acked {
				t.Fatalf("cut at write %d: the acknowledged operation is lost: %v", limit, got)
			}
		default:
			t.Fatalf("cut at write %d: results %v, want %v or %v", limit, got, before, after)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d cuts", writes+1)
}

// TestRecoverHoldsBuiltPageToItsSum: the one write of a built segment
// page reaches the device with a bit flipped below the checksumming layer
// that summed it, the operation commits, and the power goes before a
// checkpoint. Recovery holds the page to its logged sum, so reading it
// is an error, not a page that passes with the flipped bit.
func TestRecoverHoldsBuiltPageToItsSum(t *testing.T) {
	const flushDocs = 8
	opts := Options{WALBlocks: 512, FulltextConfig: fulltext.Config{FlushDocs: flushDocs, MaxSegments: 2}}
	mem := blockdev.NewMem(1<<12, blockdev.DefaultBlockSize)
	v, err := Create(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, v, flushDocs)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	img := mem.Snapshot()

	// flush opens the image on dev and commits one operation that flushes
	// a segment, with no checkpoint after it.
	flush := func(dev blockdev.Device) *Volume {
		if err := mem.RestoreFrom(img); err != nil {
			t.Fatal(err)
		}
		v, err := Open(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		err = v.withOp(func(op *pager.Op) error {
			for i, oid := range oids {
				if err := v.addNameDeferred(op, oid, index.TagFulltext, segmentDoc(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	// A page of the segment the flush builds, other than its header.
	healthy := flush(mem)
	trees := healthy.Fulltext().Inner().Trees()
	if len(trees) != 2 {
		t.Fatalf("%d trees, want the manifest and one segment", len(trees))
	}
	seg := trees[1]
	chk, err := seg.Check()
	if err != nil {
		t.Fatal(err)
	}
	target := chk.AllPages[0]
	if target == seg.HeaderPage() {
		target = chk.AllPages[1]
	}

	fd := blockdev.NewFault(mem)
	flip := fd.AddRule(blockdev.FaultRule{Op: blockdev.OpWrite, Kind: blockdev.FaultBitFlip, Lo: target, Hi: target + 1, Count: 1})
	flush(fd)
	if flip.Fired() != 1 {
		t.Fatalf("the flip fired %d times", flip.Fired())
	}
	v2, err := Open(crashCopy(t, mem), Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer v2.Close()
	if v2.Recovery().Clean {
		t.Fatal("the image needed no recovery")
	}
	buf := make([]byte, mem.BlockSize())
	if err := v2.cdev.ReadBlock(target, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reading built page %d written with a flipped bit: %v, want ErrCorrupt", target, err)
	}
}
