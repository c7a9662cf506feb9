package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blockdev"
)

const blockSize = blockdev.DefaultBlockSize

var errDeviceGone = errors.New("benchmark: device crashed or closed")

// device is the simulated disk every store in the benchmark runs on: an
// off-heap memory device that counts calls, records a span per call while
// a recorder is attached, and models power loss. Writes land in live, the
// image the store reads back; Sync copies the blocks written since the
// previous Sync into durable. crash freezes the device, so durable is what
// a disk would hold after the power went: every write not followed by a
// Sync is gone, and nothing the crashed store does later can reach it.
type device struct {
	mu      sync.RWMutex
	live    []byte
	durable []byte
	dirty   []uint64 // blocks written since the last Sync, repeats allowed
	blocks  uint64
	gone    bool

	reads, writes, syncs atomic.Int64
	rec                  atomic.Pointer[recorder]
}

func newDevice(blocks uint64) (*device, error) {
	live, err := allocOffHeap(int(blocks) * blockSize)
	if err != nil {
		return nil, fmt.Errorf("map device: %w", err)
	}
	durable, err := allocOffHeap(int(blocks) * blockSize)
	if err != nil {
		_ = freeOffHeap(live) // the mapping error is the one to report
		return nil, fmt.Errorf("map device: %w", err)
	}
	return &device{live: live, durable: durable, blocks: blocks}, nil
}

// checkBlock is the argument check both devices of this file make.
func checkBlock(n, blocks uint64, p []byte) error {
	if n >= blocks {
		return fmt.Errorf("%w: block %d of %d", blockdev.ErrOutOfRange, n, blocks)
	}
	if len(p) != blockSize {
		return fmt.Errorf("%w: got %d want %d", blockdev.ErrBadLength, len(p), blockSize)
	}
	return nil
}

func (d *device) check(n uint64, p []byte) error {
	if d.gone {
		return errDeviceGone
	}
	return checkBlock(n, d.blocks, p)
}

// ReadBlock implements blockdev.Device.
func (d *device) ReadBlock(n uint64, p []byte) error {
	if r := d.rec.Load(); r != nil {
		defer r.add(spDevRead, r.now())
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.check(n, p); err != nil {
		return err
	}
	copy(p, d.live[n*blockSize:])
	d.reads.Add(1)
	return nil
}

// WriteBlock implements blockdev.Device.
func (d *device) WriteBlock(n uint64, p []byte) error {
	if r := d.rec.Load(); r != nil {
		defer r.add(spDevWrite, r.now())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(n, p); err != nil {
		return err
	}
	copy(d.live[n*blockSize:], p)
	d.dirty = append(d.dirty, n)
	d.writes.Add(1)
	return nil
}

// Sync implements blockdev.Device: everything written so far is durable.
func (d *device) Sync() error {
	if r := d.rec.Load(); r != nil {
		defer r.add(spDevSync, r.now())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.gone {
		return errDeviceGone
	}
	for _, n := range d.dirty {
		copy(d.durable[n*blockSize:(n+1)*blockSize], d.live[n*blockSize:])
	}
	d.dirty = d.dirty[:0]
	d.syncs.Add(1)
	return nil
}

// BlockSize implements blockdev.Device.
func (d *device) BlockSize() int { return blockSize }

// NumBlocks implements blockdev.Device.
func (d *device) NumBlocks() uint64 { return d.blocks }

// Close implements blockdev.Device. The store never closes its device; the
// harness releases the mappings with free.
func (d *device) Close() error { return nil }

// crash cuts the power: every later call fails, and durable holds exactly
// the synced writes.
func (d *device) crash() {
	d.mu.Lock()
	d.gone = true
	d.mu.Unlock()
}

// free unmaps the buffers. Calls racing with it fail instead of faulting.
func (d *device) free() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gone = true
	live, durable := d.live, d.durable
	d.live, d.durable = nil, nil
	return errors.Join(freeOffHeap(live), freeOffHeap(durable))
}

// deviceModelMS prices the counted calls with the repository's SSD model (90 µs a
// read, 250 µs a write) plus the README's 1 ms flush, in milliseconds. It
// is a weighted count, not a measured time.
func deviceModelMS(reads, writes, syncs int64) float64 {
	return 0.09*float64(reads) + 0.25*float64(writes) + 1.0*float64(syncs)
}

// overlay is a private, writable view of a crash image: reads fall
// through to the image, writes stay in the overlay. Each timed reopen
// recovers on a fresh overlay, so all of them start from the same bytes.
type overlay struct {
	mu     sync.Mutex
	base   []byte
	over   map[uint64][]byte
	blocks uint64
}

func newOverlay(d *device) *overlay {
	return &overlay{base: d.durable, over: make(map[uint64][]byte), blocks: d.blocks}
}

// ReadBlock implements blockdev.Device.
func (o *overlay) ReadBlock(n uint64, p []byte) error {
	if err := checkBlock(n, o.blocks, p); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if b, ok := o.over[n]; ok {
		copy(p, b)
	} else {
		copy(p, o.base[n*blockSize:])
	}
	return nil
}

// WriteBlock implements blockdev.Device.
func (o *overlay) WriteBlock(n uint64, p []byte) error {
	if err := checkBlock(n, o.blocks, p); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	b, ok := o.over[n]
	if !ok {
		b = make([]byte, blockSize)
		o.over[n] = b
	}
	copy(b, p)
	return nil
}

// BlockSize implements blockdev.Device.
func (o *overlay) BlockSize() int { return blockSize }

// NumBlocks implements blockdev.Device.
func (o *overlay) NumBlocks() uint64 { return o.blocks }

// Sync implements blockdev.Device.
func (o *overlay) Sync() error { return nil }

// Close implements blockdev.Device.
func (o *overlay) Close() error { return nil }
