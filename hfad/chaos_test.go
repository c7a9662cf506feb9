package hfad_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strconv"
	"testing"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/core"
	"repro/internal/osd"
)

// chaosEnv reads an integer knob, for the nightly randomized tier: the
// PR smoke run uses the fixed defaults, the nightly job sweeps seeds
// and raises the op count.
func chaosEnv(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// typedChaosErr reports whether err is an error a faulted store may
// legitimately surface: detected corruption, injected transient EIO,
// degraded read-only mode, or structural detection built on either.
func typedChaosErr(err error) bool {
	return errors.Is(err, core.ErrCorrupt) || errors.Is(err, osd.ErrCorrupt) ||
		errors.Is(err, blockdev.ErrInjected) || errors.Is(err, core.ErrReadOnly) ||
		errors.Is(err, core.ErrBadSuperblock) ||
		// Honest resource exhaustion, not corruption: long nightly runs
		// legitimately fill the fixed-size device between deletes.
		errors.Is(err, buddy.ErrNoSpace)
}

// TestChaosMediaFaults runs a seeded random workload against a store
// whose device rots underneath it — scheduled bit flips on writes and
// reads, lost writes, and a misdirected write, all inside the data
// region — and holds one invariant throughout: an acknowledged write is
// durable or detected. Every read either returns exactly what the
// in-memory oracle says was acked, or fails with a typed error. Silent
// wrong data or a panic fails the test. After the workload the device
// stops rotting (rules exhaust/clear), the volume is closed, reopened
// through recovery, swept again, and scrubbed.
func TestChaosMediaFaults(t *testing.T) {
	ops := chaosEnv("HFADD_CHAOS_OPS", 400)
	seed := uint64(chaosEnv("HFADD_CHAOS_SEED", 1))

	mem := hfad.NewMemDevice(1 << 14)
	fd := blockdev.NewFault(mem)
	fd.Seed(int64(seed))
	st, err := hfad.Create(fd, hfad.Options{WALBlocks: 512})
	if err != nil {
		t.Fatal(err)
	}

	// The fault schedule: deterministic (Prob 0) firings planted at
	// operation depths the workload is guaranteed to reach, all confined
	// to the data region — the WAL and snapshot regions stay honest, so
	// commits ack and the rot surfaces on the home-page read path.
	start, blocks := st.Volume().DataRegion()
	lo, hi := start, start+blocks
	rules := []*blockdev.Rule{
		fd.AddRule(blockdev.FaultRule{Kind: blockdev.FaultBitFlip, Op: blockdev.OpWrite, Lo: lo, Hi: hi, After: 40, Count: 2}),
		fd.AddRule(blockdev.FaultRule{Kind: blockdev.FaultLostWrite, Op: blockdev.OpWrite, Lo: lo, Hi: hi, After: 120, Count: 2}),
		fd.AddRule(blockdev.FaultRule{Kind: blockdev.FaultMisdirected, Op: blockdev.OpWrite, Lo: lo, Hi: hi, After: 220, Count: 1}),
		fd.AddRule(blockdev.FaultRule{Kind: blockdev.FaultBitFlip, Op: blockdev.OpRead, Lo: lo, Hi: hi, After: 60, Count: 3}),
	}

	rng := rand.New(rand.NewPCG(seed, 0xC0FFEE))
	oracle := make(map[hfad.OID][]byte) // acked content per object
	var oids []hfad.OID                 // stable iteration/pick order
	drop := func(oid hfad.OID) {
		delete(oracle, oid)
		for i, o := range oids {
			if o == oid {
				oids = append(oids[:i], oids[i+1:]...)
				break
			}
		}
	}
	body := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	// verify holds the core invariant for one object: acked content or a
	// typed error, never silent wrong data.
	verify := func(s *hfad.Store, oid hfad.OID, phase string) (detected bool) {
		want := oracle[oid]
		obj, err := s.OpenObject(oid)
		if err != nil {
			if !typedChaosErr(err) {
				t.Fatalf("%s: open oid %d: untyped error %v", phase, oid, err)
			}
			return true
		}
		defer obj.Close()
		got := make([]byte, len(want))
		n, err := obj.ReadAt(got, 0)
		if err != nil && !(errors.Is(err, io.EOF) && n == len(want)) {
			if !typedChaosErr(err) {
				t.Fatalf("%s: read oid %d: untyped error %v", phase, oid, err)
			}
			return true
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: oid %d ACKED WRITE SILENTLY WRONG (%d bytes, seed %d)", phase, oid, len(want), seed)
		}
		return false
	}

	for i := 0; i < ops; i++ {
		switch op := rng.IntN(10); {
		case op < 1: // a batch of small objects, packed into shared blocks
			contents := make([][]byte, 1+rng.IntN(5))
			for j := range contents {
				contents[j] = body(50 + rng.IntN(2000))
			}
			var made []hfad.OID
			berr := st.Batch(func(b *hfad.Batch) error {
				for _, c := range contents {
					obj, err := b.CreateObject("chaos")
					if err != nil {
						return err
					}
					made = append(made, obj.OID())
					err = b.Append(obj, c)
					obj.Close()
					if err != nil {
						return err
					}
				}
				return nil
			})
			if berr != nil {
				if !typedChaosErr(berr) {
					t.Fatalf("op %d batch: untyped error %v", i, berr)
				}
				continue // rolled back: nothing acked
			}
			for j, oid := range made {
				oracle[oid] = contents[j]
				oids = append(oids, oid)
			}
		case op < 4 || len(oids) == 0: // create
			obj, err := st.CreateObject("chaos")
			if err != nil {
				if !typedChaosErr(err) {
					t.Fatalf("op %d create: untyped error %v", i, err)
				}
				continue
			}
			content := body(50 + rng.IntN(6000))
			werr := obj.WriteAt(content, 0)
			obj.Close()
			if werr != nil {
				if !typedChaosErr(werr) {
					t.Fatalf("op %d write: untyped error %v", i, werr)
				}
				continue // not acked; object exists but stays out of the oracle
			}
			oracle[obj.OID()] = content
			oids = append(oids, obj.OID())
		case op < 6: // append to an existing object
			oid := oids[rng.IntN(len(oids))]
			obj, err := st.OpenObject(oid)
			if err != nil {
				if !typedChaosErr(err) {
					t.Fatalf("op %d open: untyped error %v", i, err)
				}
				continue
			}
			extra := body(20 + rng.IntN(2000))
			aerr := obj.Append(extra)
			obj.Close()
			if aerr != nil {
				if !typedChaosErr(aerr) {
					t.Fatalf("op %d append: untyped error %v", i, aerr)
				}
				// The abort path should have rolled back, but under media
				// faults we don't assume it; stop tracking this object.
				drop(oid)
				continue
			}
			oracle[oid] = append(oracle[oid], extra...)
		case op < 7 && len(oids) > 8: // delete — frees space, exercises unlink under faults
			oid := oids[rng.IntN(len(oids))]
			if err := st.DeleteObject(oid); err != nil {
				if !typedChaosErr(err) {
					t.Fatalf("op %d delete: untyped error %v", i, err)
				}
				drop(oid) // fate unknown under faults; stop tracking either way
				continue
			}
			drop(oid)
		case op < 8: // tag + resolve round trip
			oid := oids[rng.IntN(len(oids))]
			tag := fmt.Sprintf("chaos:%d", i)
			if err := st.Tag(oid, hfad.TagUDef, tag); err != nil {
				if !typedChaosErr(err) {
					t.Fatalf("op %d tag: untyped error %v", i, err)
				}
				continue
			}
			ids, err := st.Find(hfad.TagValue{Tag: hfad.TagUDef, Value: []byte(tag)})
			if err != nil {
				if !typedChaosErr(err) {
					t.Fatalf("op %d find: untyped error %v", i, err)
				}
				continue
			}
			if len(ids) != 1 || ids[0] != oid {
				t.Fatalf("op %d: find %q = %v, want [%d]", i, tag, ids, oid)
			}
		default: // read-verify a random acked object
			verify(st, oids[rng.IntN(len(oids))], fmt.Sprintf("op %d", i))
		}
		if i == ops/2 {
			// Mid-workload checkpoint pushes dirty pages through the armed
			// write rules so home-page rot actually lands on the device.
			if err := st.Sync(); err != nil && !typedChaosErr(err) {
				t.Fatalf("mid sync: untyped error %v", err)
			}
		}
	}

	fired := int64(0)
	for _, r := range rules {
		fired += r.Fired()
	}
	if fired == 0 {
		t.Fatalf("no fault rule fired in %d ops; chaos proved nothing", ops)
	}
	t.Logf("chaos: %d ops, %d objects acked, %d faults injected", ops, len(oids), fired)

	// The media stops rotting; the store must converge back to health.
	fd.ClearRules()
	detected := 0
	for _, oid := range oids {
		if verify(st, oid, "post-workload") {
			detected++
		}
	}

	// Power cut: the image as it stands, log tail and all, recovered on a
	// device of its own. Recovery restores the allocator from a snapshot
	// slot plus the tail; wherever fsck finds the recovered volume sound,
	// that allocator must be exactly the one the reachability walk defines.
	exact := func(s *hfad.Store, phase string) {
		t.Helper()
		rep, err := s.Check()
		if err != nil || !rep.Ok() {
			t.Logf("chaos: %s: fsck sees the injected damage (%v, %d problems); allocator oracle not applicable", phase, err, len(rep.Problems))
			return
		}
		if err := s.Volume().VerifyAllocator(); err != nil {
			t.Fatalf("%s: fsck is clean but the recovered allocator is not the walk's (%s): %v", phase, s.RecoveryReport(), err)
		}
	}
	crash := hfad.NewMemDevice(1 << 14)
	if err := crash.RestoreFrom(mem.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if stc, err := hfad.Open(crash, hfad.Options{WALBlocks: 512}); err != nil {
		if !typedChaosErr(err) {
			t.Fatalf("crash reopen: untyped error %v", err)
		}
		t.Logf("chaos: crash reopen detected corruption (typed): %v", err)
	} else {
		for _, oid := range oids {
			verify(stc, oid, "post-crash")
		}
		exact(stc, "post-crash")
		stc.Close() //hfadvet:allow syncerr — a scratch image, discarded
	}

	// Close (flushes through the now-honest device), reopen through
	// recovery, and hold the same invariant on the recovered image.
	if err := st.Close(); err != nil && !typedChaosErr(err) {
		t.Fatalf("close: untyped error %v", err)
	}
	st2, err := hfad.Open(mem, hfad.Options{WALBlocks: 512})
	if err != nil {
		if !typedChaosErr(err) {
			t.Fatalf("reopen: untyped error %v", err)
		}
		t.Logf("chaos: reopen detected corruption (typed): %v", err)
		return
	}
	defer st2.Close()
	exact(st2, "post-recovery")
	reDetected := 0
	for _, oid := range oids {
		if verify(st2, oid, "post-recovery") {
			reDetected++
		}
	}

	rep, err := st2.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	t.Logf("chaos: %d/%d detected post-workload, %d post-recovery; %s",
		detected, len(oids), reDetected, rep)
}
