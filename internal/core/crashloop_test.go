package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/index"
	"repro/internal/osd"
	"repro/internal/pager"
)

// TestCrashLoop repeatedly crashes a volume at random write
// counts, recovers, fscks, and verifies previously committed data — the
// strongest durability property the repository claims. Every iteration:
//
//  1. open the volume (recovering whatever the last crash left)
//  2. verify all previously committed markers still resolve
//  3. do a batch of work, remembering what was committed
//  4. arm the fault device to kill a random upcoming write
//  5. keep working until the fault fires
//
// The fault can land anywhere: mid-WAL-append, mid-flush, mid-checkpoint.
// Whatever survives must recover to a consistent volume containing at
// least everything committed before the fault armed.
func TestCrashLoop(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	fd := blockdev.NewFault(mem)
	v, err := Create(fd, Options{WALBlocks: 128})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(0xC4A5, 0x10))
	type marker struct {
		oid OID
		tag string
	}
	var committed []marker
	seq := 0

	for round := 0; round < 12; round++ {
		// Phase 1: committed work (no fault armed).
		for i := 0; i < 3; i++ {
			obj, err := v.OSD.CreateObject("loop", osd.ModeRegular)
			if err != nil {
				t.Fatalf("round %d create: %v", round, err)
			}
			if err := obj.WriteAt([]byte(fmt.Sprintf("round %d item %d", round, i)), 0); err != nil {
				t.Fatalf("round %d write: %v", round, err)
			}
			tag := fmt.Sprintf("mark:%d", seq)
			seq++
			if err := v.AddName(obj.OID(), index.TagUDef, []byte(tag)); err != nil {
				t.Fatalf("round %d tag: %v", round, err)
			}
			committed = append(committed, marker{obj.OID(), tag})
			obj.Close()
		}

		// Phase 2: arm a fault and work until it fires.
		fd.FailAfterWrites(int64(rng.IntN(40)))
		if rng.IntN(2) == 0 {
			fd.SetTornWrites(true)
		}
		for i := 0; i < 200 && !fd.Tripped(); i++ {
			obj, err := v.OSD.CreateObject("doomed", osd.ModeRegular)
			if err != nil {
				break
			}
			if err := obj.WriteAt([]byte("uncommitted eventually"), 0); err != nil {
				obj.Close()
				break
			}
			obj.Close()
		}
		if !fd.Tripped() {
			// The fault budget outlived the work; force it.
			fd.FailAfterWrites(0)
			_, cerr := v.OSD.CreateObject("x", osd.ModeRegular)
			if cerr == nil {
				t.Fatalf("round %d: fault did not fire", round)
			}
		}
		fd.Disarm()

		// "Reboot": recover from the raw surviving image.
		v2, err := Open(mem, Options{})
		if err != nil {
			t.Fatalf("round %d recovery open: %v", round, err)
		}
		assertRecoveryExact(t, v2)
		rep, err := v2.Check()
		if err != nil {
			t.Fatalf("round %d fsck: %v", round, err)
		}
		if !rep.Ok() {
			t.Fatalf("round %d fsck problems: %v", round, rep.Problems)
		}
		// Every marker committed before this crash must resolve.
		for _, m := range committed {
			ids, err := v2.Resolve(TagValue{index.TagUDef, []byte(m.tag)})
			if err != nil {
				t.Fatalf("round %d resolve %s: %v", round, m.tag, err)
			}
			found := false
			for _, id := range ids {
				if id == m.oid {
					found = true
				}
			}
			if !found {
				t.Fatalf("round %d: committed %s (oid %d) lost after crash", round, m.tag, m.oid)
			}
		}
		// Continue the loop on the recovered volume, re-wrapping the
		// device with a fresh fault injector.
		fd = blockdev.NewFault(mem)
		v3, err := Open(fd, Options{})
		if err != nil {
			t.Fatalf("round %d re-wrap open: %v", round, err)
		}
		v = v3
	}
}

// TestSharedPageAnomalyFixed is the physiological-logging regression for
// the shared-page commit anomaly: two operation brackets open
// concurrently, the first mutates an index page and never commits, the
// second mutates the *same* page and commits, then the volume crashes.
// Under whole-page image logging (retired; DESIGN.md keeps its numbers)
// the committed transaction's page images carried the neighbour's
// uncommitted bytes and recovery surfaced them; each commit now carries
// only its own typed records, so the "ghost" name must not resolve and
// fsck must find no half-applied operation.
func TestSharedPageAnomalyFixed(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	fd := blockdev.NewFault(mem)
	v, err := Create(fd, Options{
		WALBlocks:   128,
		IndexShards: 1, // one UDEF tree, so both names share its leaf
	})
	if err != nil {
		t.Fatal(err)
	}
	oid1 := mustCreateObject(t, v, "u", "neighbour")
	oid2 := mustCreateObject(t, v, "u", "committer")

	// The neighbour edits the leaf, then parks inside its bracket: it is
	// still open, uncommitted, when the volume crashes. Released after
	// the test, it rolls back against the dead device.
	edited := make(chan *pager.Op)
	release := make(chan struct{})
	parked := make(chan error, 1)
	go func() {
		parked <- v.withOp(func(op *pager.Op) error {
			if err := v.addNameDeferred(op, oid1, index.TagUDef, []byte("ghost")); err != nil {
				close(edited)
				return err
			}
			edited <- op
			<-release
			return errors.New("crashed before commit")
		})
	}()
	t.Cleanup(func() {
		close(release)
		<-parked
	})
	op1, ok := <-edited
	if !ok {
		t.Fatal("the neighbour's edit failed")
	}
	err = v.withOp(func(op2 *pager.Op) error {
		if err := v.addNameDeferred(op2, oid2, index.TagUDef, []byte("alive")); err != nil {
			return err
		}
		// The hazard needs both operations to have edited one page: the
		// page a whole-page image of the committer would have carried the
		// ghost on.
		touched := map[uint64]bool{}
		for _, r := range op1.Records() {
			touched[r.Page] = true
		}
		for _, r := range op2.Records() {
			if touched[r.Page] {
				return nil
			}
		}
		return errors.New("test premise broken: the two operations share no page")
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crash: no further device writes land.
	fd.FailAfterWrites(0)

	v2, err := Open(mem, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	assertRecoveryExact(t, v2)
	defer v2.Close()
	rep, err := v2.Check()
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	// The committed name must always survive.
	ids, err := v2.Resolve(TagValue{index.TagUDef, []byte("alive")})
	if err != nil || len(ids) != 1 || ids[0] != oid2 {
		t.Fatalf("committed name lost: %v, %v", ids, err)
	}
	ghosts, err := v2.Resolve(TagValue{index.TagUDef, []byte("ghost")})
	if err != nil {
		t.Fatalf("resolve ghost: %v", err)
	}
	if len(ghosts) > 0 || !rep.Ok() {
		t.Errorf("committed txn leaked a neighbour's uncommitted edit: ghost %v, fsck %v", ghosts, rep.Problems)
	}
}

// TestCrashLoopConcurrentWriters is TestCrashLoop with truly concurrent
// writers, so crashes land while transactions interleave on shared index
// pages and mid-split system transactions — the regime physiological
// logging exists for. Every acknowledged name must survive every crash.
func TestCrashLoopConcurrentWriters(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	fd := blockdev.NewFault(mem)
	v, err := Create(fd, Options{WALBlocks: 128, IndexShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(0x9A0A, 0x15))
	type marker struct {
		oid OID
		tag string
	}
	var (
		mu        sync.Mutex
		committed []marker
		seq       atomic.Int64
	)
	const writers = 4
	for round := 0; round < 6; round++ {
		if round > 0 && rng.IntN(2) == 0 {
			fd.SetTornWrites(true)
		}
		fd.FailAfterWrites(int64(20 + rng.IntN(80)))
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20 && !fd.Tripped(); i++ {
					obj, err := v.OSD.CreateObject("w", osd.ModeRegular)
					if err != nil {
						return
					}
					if err := obj.WriteAt([]byte("payload"), 0); err != nil {
						obj.Close()
						return
					}
					tag := fmt.Sprintf("cmk:%d", seq.Add(1))
					err = v.AddName(obj.OID(), index.TagUDef, []byte(tag))
					obj.Close()
					if err != nil {
						return
					}
					// AddName acknowledged: durably committed, must
					// survive the crash.
					mu.Lock()
					committed = append(committed, marker{obj.OID(), tag})
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if !fd.Tripped() {
			fd.FailAfterWrites(0)
			_, _ = v.OSD.CreateObject("x", osd.ModeRegular)
		}
		fd.Disarm()

		v2, err := Open(mem, Options{})
		if err != nil {
			t.Fatalf("round %d recovery open: %v", round, err)
		}
		assertRecoveryExact(t, v2)
		rep, err := v2.Check()
		if err != nil {
			t.Fatalf("round %d fsck: %v", round, err)
		}
		if !rep.Ok() {
			t.Fatalf("round %d fsck problems: %v", round, rep.Problems)
		}
		for _, m := range committed {
			ids, err := v2.Resolve(TagValue{index.TagUDef, []byte(m.tag)})
			if err != nil {
				t.Fatalf("round %d resolve %s: %v", round, m.tag, err)
			}
			found := false
			for _, id := range ids {
				if id == m.oid {
					found = true
				}
			}
			if !found {
				t.Fatalf("round %d: acknowledged %s (oid %d) lost after crash", round, m.tag, m.oid)
			}
		}
		fd = blockdev.NewFault(mem)
		v3, err := Open(fd, Options{})
		if err != nil {
			t.Fatalf("round %d re-wrap open: %v", round, err)
		}
		v = v3
	}
}

// TestTornWALTailRecovered crashes specifically during a WAL append with
// a torn block, then verifies recovery drops only the torn transaction.
func TestTornWALTailRecovered(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	fd := blockdev.NewFault(mem)
	v, err := Create(fd, Options{WALBlocks: 128})
	if err != nil {
		t.Fatal(err)
	}
	oid := mustCreateObject(t, v, "u", "committed survivor")
	if err := v.AddName(oid, index.TagUDef, []byte("alive")); err != nil {
		t.Fatal(err)
	}

	// Arm a torn write for the very next device write (inside a commit).
	fd.SetTornWrites(true)
	fd.FailAfterWrites(0)
	_, err = v.OSD.CreateObject("torn", osd.ModeRegular)
	if err == nil {
		// The create's first commit may have more writes queued; push on.
		if err := v.AddName(oid, index.TagUDef, []byte("second")); err == nil {
			t.Fatal("no failure despite armed torn write")
		}
	}

	v2, err := Open(mem, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	assertRecoveryExact(t, v2)
	rep, err := v2.Check()
	if err != nil || !rep.Ok() {
		t.Fatalf("fsck after torn tail: %+v, %v", rep, err)
	}
	ids, err := v2.Resolve(TagValue{index.TagUDef, []byte("alive")})
	if err != nil || len(ids) != 1 || ids[0] != oid {
		t.Errorf("committed data lost: %v, %v", ids, err)
	}
}

// TestReplayOverAppliedPagesIdempotent pins the checkpoint crash window:
// a checkpoint's page flush completes (home pages hold post-applied
// state, including split results) but the crash lands before the log
// reset is durable, so recovery replays the entire intact log over
// already-applied pages. First-touch base images must make that replay
// idempotent — without them, re-executing a split against an
// already-split leaf wipes the right sibling and corrupts the chain.
func TestReplayOverAppliedPagesIdempotent(t *testing.T) {
	mem := blockdev.NewMem(1<<14, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{WALBlocks: 2048, IndexShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var tags []string
	oid := mustCreateObject(t, v, "u", "split fodder")
	for i := 0; i < 300; i++ { // enough names to split index leaves
		tag := fmt.Sprintf("idem:%04d", i)
		if err := v.AddName(oid, index.TagUDef, []byte(tag)); err != nil {
			t.Fatal(err)
		}
		tags = append(tags, tag)
	}
	if v.log.Stats().SystemTxns == 0 {
		t.Fatal("workload produced no splits; test would not exercise re-execution")
	}
	// The window: flush every page home and sync — exactly what
	// checkpointNow does before resetting the log — then "crash" so the
	// reset never lands and recovery replays the whole log over the
	// post-applied pages.
	if err := v.pg.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if err := v.cdev.Sync(); err != nil {
		t.Fatal(err)
	}

	v2, err := Open(mem, Options{})
	if err != nil {
		t.Fatalf("recovery over applied pages: %v", err)
	}
	assertRecoveryExact(t, v2)
	defer v2.Close()
	rep, err := v2.Check()
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("fsck problems after idempotent replay: %v", rep.Problems)
	}
	for _, tag := range tags {
		ids, err := v2.Resolve(TagValue{index.TagUDef, []byte(tag)})
		if err != nil || len(ids) != 1 || ids[0] != oid {
			t.Fatalf("name %s lost replaying over applied pages: %v, %v", tag, ids, err)
		}
	}
}
