package main

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/core"
)

func filled(b byte) []byte { return bytes.Repeat([]byte{b}, blockSize) }

func readBlock(t *testing.T, d blockdev.Device, n uint64) []byte {
	t.Helper()
	p := make([]byte, blockSize)
	if err := d.ReadBlock(n, p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCrashKeepsOnlySyncedWrites: after a crash the image holds what was
// written before the last Sync and nothing written after it, the dead
// device refuses everything, and neither it nor one reopen can change what
// the next reopen sees.
func TestCrashKeepsOnlySyncedWrites(t *testing.T) {
	dev, err := newDevice(8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dev.free(); err != nil {
			t.Error(err)
		}
	}()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(dev.WriteBlock(1, filled('a')))
	must(dev.Sync())
	must(dev.WriteBlock(1, filled('b')))
	must(dev.WriteBlock(2, filled('c')))
	if got := readBlock(t, dev, 1); got[0] != 'b' {
		t.Fatalf("live device reads %q before the crash, want the latest write", got[0])
	}
	dev.crash()

	if err := dev.WriteBlock(1, filled('z')); !errors.Is(err, errDeviceGone) {
		t.Errorf("write after the crash: %v, want %v", err, errDeviceGone)
	}
	if err := dev.Sync(); !errors.Is(err, errDeviceGone) {
		t.Errorf("sync after the crash: %v, want %v", err, errDeviceGone)
	}
	first := newOverlay(dev)
	if got := readBlock(t, first, 1); got[0] != 'a' {
		t.Errorf("block 1 reads %q after the crash, want the synced 'a'", got[0])
	}
	if got := readBlock(t, first, 2); got[0] != 0 {
		t.Errorf("block 2 reads %q after the crash, want zeros: its write was never synced", got[0])
	}
	must(first.WriteBlock(1, filled('r')))
	must(first.Sync())
	if got := readBlock(t, first, 1); got[0] != 'r' {
		t.Errorf("overlay reads %q, want its own write", got[0])
	}
	if got := readBlock(t, newOverlay(dev), 1); got[0] != 'a' {
		t.Errorf("a second reopen reads %q, want the crash image's 'a'", got[0])
	}
}

// dropSync acknowledges flushes without performing them once armed: the
// lying disk the readback after the crash exists to catch.
type dropSync struct {
	blockdev.Device
	armed atomic.Bool
}

func (d *dropSync) Sync() error {
	if d.armed.Load() {
		return nil
	}
	return d.Device.Sync()
}

// TestReadbackCatchesDroppedSync: names acknowledged over a device that
// drops their syncs are gone after the crash, and the readback says so;
// over an honest device the same names survive.
func TestReadbackCatchesDroppedSync(t *testing.T) {
	for _, lie := range []bool{false, true} {
		cfg := smokeConfig(t, "mixed_txn")
		cfg.trace = false
		faulty := &dropSync{}
		cfg.wrap = func(d blockdev.Device) blockdev.Device {
			faulty.Device = d
			return faulty
		}
		dev, st, x := smokeStore(t, &cfg)
		// As in a run: a checkpoint, then writes the log alone carries.
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		faulty.armed.Store(lie)
		g := newGen(5, cfg.spec.docs, recoveryMix)
		for i := 0; i < 10; i++ {
			x.do(g.next())
		}
		if x.failed != 0 {
			t.Fatalf("lie=%t: %d operations failed before the crash: %v", lie, x.failed, x.failures)
		}
		if _, err := crashAndReopen(&cfg, dev, st, x); err != nil {
			t.Fatal(err)
		}
		if lost := x.failed > 0; lost != lie {
			t.Errorf("lie=%t: readback failed %d checks: %v", lie, x.failed, x.failures)
		}
	}
}

// TestAckedBytesSurviveCrash holds the store to the durability rule for
// object bytes. It skips while the store has the defect that keeps appends
// and creates out of the benchmark's recovery tail (see README.md); when
// the defect is fixed it starts to pass, and recoveryMix can take them in.
func TestAckedBytesSurviveCrash(t *testing.T) {
	dev, err := newDevice(1 << 13)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dev.free(); err != nil {
			t.Error(err)
		}
	}()
	st, err := hfad.Create(dev, hfad.Options{Transactional: true})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := st.CreateObject("bench")
	if err != nil {
		t.Fatal(err)
	}
	oid := obj.OID()
	if err := errors.Join(obj.Append(filled('a')[:600]), st.Sync(), obj.Append(filled('b')[:100]), obj.Close()); err != nil {
		t.Fatal(err)
	}
	dev.crash()
	if err := st.Close(); err == nil {
		t.Fatal("the crashed store closed cleanly")
	}
	re, err := hfad.Open(newOverlay(dev), hfad.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := re.Close(); err != nil {
			t.Error(err)
		}
	}()
	obj, err = re.OpenObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	got := make([]byte, 700)
	if _, err := obj.ReadAt(got, 0); errors.Is(err, core.ErrCorrupt) {
		t.Skipf("known store defect: an acknowledged append after the last checkpoint does not read back after a crash: %v", err)
	}
	if want := append(filled('a')[:600], filled('b')[:100]...); !bytes.Equal(got, want) {
		t.Errorf("object reads back wrong after the crash")
	}
}
