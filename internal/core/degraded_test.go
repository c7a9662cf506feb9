package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/index"
	"repro/internal/pager"
)

// fakeClock is an Options.Clock that moves only when the test steps it.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Unix(1_000_000, 0).UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time       { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Step(d time.Duration) { c.ns.Add(int64(d)) }

// unwritableData makes every write into v's data region fail, so
// checkpoints (which write pages home) fail while log appends, below the
// data region, still land.
func unwritableData(fd *blockdev.FaultDevice, v *Volume) {
	start, blocks := v.DataRegion()
	fd.AddRule(blockdev.FaultRule{Kind: blockdev.FaultError, Op: blockdev.OpWrite, Lo: start, Hi: start + blocks})
}

// TestOpenStartsNoGoroutine: a volume runs nothing in the background, so
// one abandoned without Close — a crash — leaves nothing running that
// holds it or its device.
func TestOpenStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		mem := blockdev.NewMem(1<<11, blockdev.DefaultBlockSize)
		v, err := Create(mem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mustCreateObject(t, v, "g", "abandoned")
		if _, err := Open(crashCopy(t, mem), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after abandoning three created and three reopened volumes, %d before", n, base)
	}
}

// TestDegradedHealsOnDemand drives the degraded state by calls and an
// injected clock: a failed checkpoint latches the volume read-only, a
// mutation before the backoff has elapsed fails without retrying, each
// failed retry doubles the backoff up to its cap, one of several
// concurrent mutations runs a due retry, and once the device recovers a
// Health call alone heals the idle volume.
func TestDegradedHealsOnDemand(t *testing.T) {
	clock := newFakeClock()
	fd := blockdev.NewFault(blockdev.NewMem(1<<12, blockdev.DefaultBlockSize))
	v, err := Create(fd, Options{Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	oid := mustCreateObject(t, v, "d", "committed before the fault")
	unwritableData(fd, v)
	if err := v.Sync(); err == nil {
		t.Fatal("Sync succeeded with the data region unwritable")
	}
	if !v.Degraded() {
		t.Fatal("a failed checkpoint left the volume writable")
	}
	tag := func(value string) error { return v.AddName(oid, index.TagUDef, []byte(value)) }

	wait := ckptRetryMin
	for n := int64(1); n <= 10; n++ {
		clock.Step(wait - 1)
		if err := tag("early"); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("mutation %v into a %v backoff = %v, want ErrReadOnly", wait-1, wait, err)
		}
		if h := v.Health(); !h.Degraded || h.CheckpointFailures != n {
			t.Fatalf("%v into a %v backoff: %+v, want degraded after %d failures", wait-1, wait, h, n)
		}
		clock.Step(1)
		if err := tag("due"); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("mutation on a still failing device = %v, want ErrReadOnly", err)
		}
		if got := v.ckptFailures.Load(); got != n+1 {
			t.Fatalf("the mutation at the end of a %v backoff made %d checkpoint attempts, want 1", wait, got-n)
		}
		wait = min(2*wait, ckptRetryMax)
	}
	if wait != ckptRetryMax {
		t.Fatalf("backoff %v after ten failures, want the %v cap", wait, ckptRetryMax)
	}

	// Of the mutations that find the retry due at once, one runs it.
	clock.Step(wait)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tag("racing"); !errors.Is(err, ErrReadOnly) {
				t.Errorf("concurrent mutation on a failing device = %v, want ErrReadOnly", err)
			}
		}()
	}
	wg.Wait()
	if got := v.ckptFailures.Load(); got != 12 {
		t.Fatalf("eight concurrent mutations made %d checkpoint attempts, want 1", got-11)
	}

	fd.ClearRules()
	ckpts := v.log.Stats().Checkpoints
	clock.Step(wait)
	if h := v.Health(); h.Degraded || h.CheckpointFailures != 12 {
		t.Fatalf("Health after the fault cleared: %+v, want healed", h)
	}
	if got := v.log.Stats().Checkpoints - ckpts; got != 1 {
		t.Fatalf("the heal ran %d checkpoints, want 1", got)
	}
	if err := tag("healed"); err != nil {
		t.Fatalf("mutation after the heal: %v", err)
	}
	if ids, err := v.Resolve(TV(index.TagUDef, "healed")); err != nil || len(ids) != 1 {
		t.Fatalf("the write after the heal resolves to %v, %v", ids, err)
	}

	// The heal reset the backoff: the next failure waits ckptRetryMin.
	unwritableData(fd, v)
	if err := v.Sync(); err == nil {
		t.Fatal("Sync succeeded with the data region unwritable")
	}
	fd.ClearRules()
	clock.Step(ckptRetryMin)
	if err := tag("again"); err != nil {
		t.Fatalf("mutation %v after a fresh failure: %v", ckptRetryMin, err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
}

// powerCut passes writes and syncs to the device until limit of them
// have passed (never, when limit < 0) and fails every one after: the
// power goes at that write or sync. ops counts those that passed.
type powerCut struct {
	blockdev.Device
	limit, ops int64
}

func (p *powerCut) pass() bool {
	if p.limit >= 0 && p.ops >= p.limit {
		return false
	}
	p.ops++
	return true
}

func (p *powerCut) WriteBlock(n uint64, b []byte) error {
	if !p.pass() {
		return blockdev.ErrInjected
	}
	return p.Device.WriteBlock(n, b)
}

func (p *powerCut) Sync() error {
	if !p.pass() {
		return blockdev.ErrInjected
	}
	return p.Device.Sync()
}

// TestPowerCutDuringHeal degrades a volume whose committed writes are
// still only in the log, clears the fault, and cuts the power at every
// device write and sync of the checkpoint that heals it. Every cut
// reopens exactly, with every write acknowledged before the fault.
func TestPowerCutDuringHeal(t *testing.T) {
	mem := blockdev.NewMem(1<<12, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, v, 40)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	img := mem.Snapshot()
	content := func(i int) []byte { return fill(3000+100*i, byte(i)) }
	name := func(i int) TagValue { return TV(index.TagUDef, fmt.Sprintf("heal-%02d", i)) }

	// run opens the image, writes and names half the objects, degrades the
	// volume, clears the fault, and lets one Health call heal it with the
	// power going after limit writes and syncs of the heal. It returns
	// how many the heal made and whether it healed.
	run := func(limit int64) (int64, bool) {
		if err := mem.RestoreFrom(img); err != nil {
			t.Fatal(err)
		}
		clock := newFakeClock()
		pc := &powerCut{Device: mem, limit: -1}
		fd := blockdev.NewFault(pc)
		v, err := Open(fd, Options{Clock: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		for i, oid := range oids[:20] {
			obj, err := v.OSD.OpenObject(oid)
			if err != nil {
				t.Fatal(err)
			}
			if err := obj.WriteAt(content(i), 0); err != nil {
				t.Fatal(err)
			}
			obj.Close()
			if err := v.AddName(oid, name(i).Tag, name(i).Value); err != nil {
				t.Fatal(err)
			}
		}
		unwritableData(fd, v)
		if err := v.Sync(); err == nil {
			t.Fatal("Sync succeeded with the data region unwritable")
		}
		fd.ClearRules()
		clock.Step(ckptRetryMin)
		pc.ops, pc.limit = 0, limit
		healed := !v.Health().Degraded
		return pc.ops, healed
	}

	heal, healed := run(-1)
	if !healed || heal == 0 {
		t.Fatalf("the heal made %d writes and syncs and healed: %v", heal, healed)
	}
	for limit := int64(0); limit <= heal; limit++ {
		if _, healed := run(limit); healed != (limit == heal) {
			t.Fatalf("cut at write or sync %d of %d: healed %v", limit, heal, healed)
		}
		v := mustOpenExact(t, mem)
		for i, oid := range oids[:20] {
			if got := readExtObj(t, v, oid, len(content(i))); !bytes.Equal(got, content(i)) {
				t.Fatalf("cut at write or sync %d: object %d lost its acknowledged write", limit, oid)
			}
			if ids, err := v.Resolve(name(i)); err != nil || len(ids) != 1 || ids[0] != oid {
				t.Fatalf("cut at write or sync %d: name %s resolves to %v, %v", limit, name(i).Value, ids, err)
			}
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d cuts", heal+1)
}

// TestWedgeClearedBeforeReturn: a deferred system transaction that finds
// the log full wedges it, and the operation that ran it clears the wedge
// with one checkpoint before it returns. The deferred work, never logged,
// is home and survives a crash.
func TestWedgeClearedBeforeReturn(t *testing.T) {
	mem := blockdev.NewMem(1<<12, blockdev.DefaultBlockSize)
	v, err := Create(mem, Options{WALBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	oid := mustCreateObject(t, v, "w", "wedge")
	if err := v.Sync(); err != nil { // the log starts empty
		t.Fatal(err)
	}
	// Fill the log with single commits to past half, short of the
	// high-water mark at two thirds, so no commit marks a checkpoint due.
	ckpts := v.log.Stats().Checkpoints
	for i := 0; v.log.Used()*100 < v.log.Capacity()*55; i++ {
		if err := v.AddName(oid, index.TagUDef, []byte(fmt.Sprintf("fill-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := v.log.Stats().Checkpoints - ckpts; n != 0 || v.ckptDue.Load() {
		t.Fatalf("the fill ran %d checkpoints and left one due: %v", n, v.ckptDue.Load())
	}
	deferred := func(i int) []byte { return []byte(fmt.Sprintf("deferred-%04d-%s", i, bytes.Repeat([]byte{'x'}, 60))) }
	var wedged, due bool
	err = v.withOp(func(op *pager.Op) error {
		// The deferred work stands in for a merge cascade: more than the
		// third of the log that is left.
		op.Defer(func(sys *pager.Op) error {
			for i := 0; i < 400; i++ {
				if err := v.addNameDeferred(sys, oid, index.TagUDef, deferred(i)); err != nil {
					return err
				}
			}
			return nil
		})
		op.Defer(func(*pager.Op) error {
			wedged, due = v.log.Wedged(), v.ckptDue.Load()
			return nil
		})
		return v.addNameDeferred(op, oid, index.TagUDef, []byte("small"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !wedged || !due {
		t.Fatalf("after the deferred work the log was wedged %v with a checkpoint due %v; the test no longer fills the log", wedged, due)
	}
	if h := v.Health(); h.WALWedged || h.Degraded {
		t.Fatalf("health when the operation returned: %+v", h)
	}
	if got := v.log.Stats().Checkpoints - ckpts; got != 1 {
		t.Fatalf("the operation ran %d checkpoints, want 1", got)
	}
	if n := v.CheckpointFallbacks(); n != 0 {
		t.Fatalf("the commit itself fell back to a checkpoint %d times", n)
	}
	v2 := mustOpenExact(t, crashCopy(t, mem))
	for _, value := range [][]byte{[]byte("small"), deferred(0), deferred(399)} {
		if ids, err := v2.Resolve(TagValue{index.TagUDef, value}); err != nil || len(ids) != 1 || ids[0] != oid {
			t.Fatalf("after a crash %q resolves to %v, %v", value, ids, err)
		}
	}
}
