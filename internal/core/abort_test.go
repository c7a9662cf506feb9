package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/extent"
	"repro/internal/osd"
)

// TestConcurrentBracketsSameObjectAbort pins the abort-time variant of
// the stale-cell-position anomaly: two brackets mutate the same object
// concurrently, one commits and one is forced to abort. The committing
// bracket's dependency flush pushes the aborting neighbour's records
// into the log as a chunk; the rollback then excises exactly the
// aborted append — wherever the interleaving put it — and commits the
// compensations resolving the chunk chain. Live state, fsck, and a
// crash-replayed image must all show only the committed appends, in
// round order, with no trace of the aborted ones.
func TestConcurrentBracketsSameObjectAbort(t *testing.T) {
	pat := func(n int, seed byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seed + byte(i%43)
		}
		return p
	}
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{
		WALBlocks:    2048,
		ExtentConfig: extent.Config{MaxExtentBytes: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := v.OSD.CreateObject("race", osd.ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	oid := obj.OID()
	obj.Close()

	errBoom := errors.New("forced abort")
	var want []byte
	const rounds = 24
	for r := 0; r < rounds; r++ {
		payloadA := pat(1000+r*7, byte(r)+1)   // aborted
		payloadB := pat(700+r*11, byte(r)+101) // committed
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			err := v.Batch(func(b *Batch) error {
				o, err := v.OSD.OpenObject(oid)
				if err != nil {
					return err
				}
				defer o.Close()
				if err := b.Append(o, payloadA); err != nil {
					return err
				}
				return errBoom
			})
			if !errors.Is(err, errBoom) {
				t.Errorf("round %d: aborting batch returned %v", r, err)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			err := v.Batch(func(b *Batch) error {
				o, err := v.OSD.OpenObject(oid)
				if err != nil {
					return err
				}
				defer o.Close()
				return b.Append(o, payloadB)
			})
			if err != nil {
				t.Errorf("round %d: committing batch: %v", r, err)
			}
		}()
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		want = append(want, payloadB...)
	}

	check := func(label string, vv *Volume) {
		t.Helper()
		rep, err := vv.Check()
		if err != nil {
			t.Fatalf("%s: fsck: %v", label, err)
		}
		if !rep.Ok() {
			t.Fatalf("%s: fsck problems: %v", label, rep.Problems)
		}
		m, err := vv.OSD.Stat(oid)
		if err != nil {
			t.Fatalf("%s: stat: %v", label, err)
		}
		if m.Size != uint64(len(want)) {
			t.Fatalf("%s: size %d, want %d (aborted bytes leaked or committed bytes lost)", label, m.Size, len(want))
		}
		got := readExtObj(t, vv, oid, len(want))
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: content diverges at byte %d of %d", label, i, len(want))
				}
			}
		}
	}
	check("live volume", v)

	// Crash: replay the raw surviving image (commits, chunk-flushed
	// aborted records, and their CLRs all repeat as history) and verify
	// the losers stayed gone.
	snap := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	if err := snap.RestoreFrom(mem.Snapshot()); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(snap, Options{})
	if err != nil {
		t.Fatalf("crash reopen: %v", err)
	}
	assertRecoveryExact(t, v2)
	defer v2.Close()
	check("crash-replayed volume", v2)

	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
}
