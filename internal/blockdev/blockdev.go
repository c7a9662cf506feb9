// Package blockdev provides the simulated stable-storage substrate that
// every other layer of the repository sits on.
//
// The paper's prototype runs on a raw Linux device via FUSE; this package
// substitutes a simulated block device so that experiments measure the
// quantities the paper argues about — block I/O counts, seek-distance cost,
// index traversals — deterministically and independently of host hardware.
//
// Three device flavours are provided:
//
//   - MemDevice: a plain in-memory block store.
//   - SimDevice: wraps any Device with a CostModel (HDD seek-distance model
//     or SSD flat model) and accumulates virtual time plus operation counts.
//   - FaultDevice: wraps any Device and injects faults — write failures
//     (including torn writes) after a programmable countdown for
//     crash-recovery tests, plus a seeded rule matrix (bit flips, lost and
//     misdirected writes, probabilistic read errors) for media-fault tests.
package blockdev

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBlockSize is the block size used throughout the repository.
const DefaultBlockSize = 4096

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sum is the checksum a volume keeps for each block of its data region:
// the CRC32C of the block's bytes.
func Sum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Common device errors.
var (
	ErrOutOfRange = errors.New("blockdev: block number out of range")
	ErrBadLength  = errors.New("blockdev: buffer length != block size")
	ErrClosed     = errors.New("blockdev: device is closed")
	// ErrInjected is returned by FaultDevice once its countdown expires.
	ErrInjected = errors.New("blockdev: injected fault")
)

// Device is a fixed-block-size random-access storage device.
// Implementations must be safe for concurrent use.
type Device interface {
	// ReadBlock reads block n into p; len(p) must equal BlockSize().
	ReadBlock(n uint64, p []byte) error
	// WriteBlock writes p to block n; len(p) must equal BlockSize().
	WriteBlock(n uint64, p []byte) error
	// BlockSize returns the device block size in bytes.
	BlockSize() int
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() uint64
	// Sync flushes any buffered state to stable storage.
	Sync() error
	// Close releases the device. Further operations return ErrClosed.
	Close() error
}

// MemDevice is an in-memory Device backed by a single contiguous buffer.
type MemDevice struct {
	mu     sync.RWMutex
	buf    []byte
	bs     int
	blocks uint64
	closed bool
}

// NewMem creates an in-memory device with the given geometry.
func NewMem(blocks uint64, blockSize int) *MemDevice {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &MemDevice{
		buf:    make([]byte, blocks*uint64(blockSize)),
		bs:     blockSize,
		blocks: blocks,
	}
}

func (d *MemDevice) check(n uint64, p []byte) error {
	if d.closed {
		return ErrClosed
	}
	if n >= d.blocks {
		return fmt.Errorf("%w: block %d of %d", ErrOutOfRange, n, d.blocks)
	}
	if len(p) != d.bs {
		return fmt.Errorf("%w: got %d want %d", ErrBadLength, len(p), d.bs)
	}
	return nil
}

// ReadBlock implements Device.
func (d *MemDevice) ReadBlock(n uint64, p []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.check(n, p); err != nil {
		return err
	}
	copy(p, d.buf[n*uint64(d.bs):])
	return nil
}

// WriteBlock implements Device.
func (d *MemDevice) WriteBlock(n uint64, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(n, p); err != nil {
		return err
	}
	copy(d.buf[n*uint64(d.bs):], p)
	return nil
}

// BlockSize implements Device.
func (d *MemDevice) BlockSize() int { return d.bs }

// NumBlocks implements Device.
func (d *MemDevice) NumBlocks() uint64 { return d.blocks }

// Sync implements Device. MemDevice has no buffering, so it only checks
// for closure.
func (d *MemDevice) Sync() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Device.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	d.closed = true
	return nil
}

// Snapshot returns a copy of the raw device contents. Used by crash tests
// to capture a post-fault disk image.
func (d *MemDevice) Snapshot() []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]byte, len(d.buf))
	copy(out, d.buf)
	return out
}

// RestoreFrom replaces the device contents with the given image.
// The image length must match the device capacity.
func (d *MemDevice) RestoreFrom(img []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(img) != len(d.buf) {
		return fmt.Errorf("blockdev: image size %d != device size %d", len(img), len(d.buf))
	}
	copy(d.buf, img)
	d.closed = false
	return nil
}

// CostModel prices a single block access given the previously accessed
// block. Implementations must be safe for concurrent use (they are called
// with device-internal serialization of prev tracking).
type CostModel interface {
	// Access returns the virtual time charged for accessing block cur
	// when the head/previous access was at block prev.
	Access(prev, cur uint64, write bool) time.Duration
	// Name identifies the model in experiment output.
	Name() string
}

// HDDModel charges seek cost proportional to the square root of seek
// distance (a standard first-order approximation of arm movement), a fixed
// average rotational latency on every discontiguous access, and a per-block
// transfer time. Sequential access (cur == prev+1) pays transfer only.
type HDDModel struct {
	SeekBase   time.Duration // fixed cost of any non-sequential access
	SeekFactor time.Duration // multiplied by sqrt(distance in blocks)
	Rotational time.Duration // average rotational delay
	Transfer   time.Duration // per-block transfer time
}

// DefaultHDD models a ~7200 RPM disk from the paper's era (2009):
// ~4 ms average rotational latency, short seeks around 1–2 ms, full-stroke
// seeks reaching ~8–10 ms on a few-hundred-thousand-block device
// (sqrt(262144) × 16 µs ≈ 8 ms), and ~100 MB/s sequential transfer
// (≈ 40 µs per 4 KiB block).
func DefaultHDD() *HDDModel {
	return &HDDModel{
		SeekBase:   500 * time.Microsecond,
		SeekFactor: 16 * time.Microsecond,
		Rotational: 4 * time.Millisecond,
		Transfer:   40 * time.Microsecond,
	}
}

// Access implements CostModel.
func (m *HDDModel) Access(prev, cur uint64, write bool) time.Duration {
	if cur == prev+1 {
		return m.Transfer
	}
	var dist float64
	if cur > prev {
		dist = float64(cur - prev)
	} else {
		dist = float64(prev - cur)
	}
	seek := m.SeekBase + time.Duration(float64(m.SeekFactor)*math.Sqrt(dist))
	return seek + m.Rotational + m.Transfer
}

// Name implements CostModel.
func (m *HDDModel) Name() string { return "hdd" }

// SSDModel charges a flat per-operation latency with no positional
// component; writes cost more than reads, as on real flash.
type SSDModel struct {
	ReadLatency  time.Duration
	WriteLatency time.Duration
}

// DefaultSSD models a SATA-era SSD: 90 µs reads, 250 µs writes.
func DefaultSSD() *SSDModel {
	return &SSDModel{ReadLatency: 90 * time.Microsecond, WriteLatency: 250 * time.Microsecond}
}

// Access implements CostModel.
func (m *SSDModel) Access(prev, cur uint64, write bool) time.Duration {
	if write {
		return m.WriteLatency
	}
	return m.ReadLatency
}

// Name implements CostModel.
func (m *SSDModel) Name() string { return "ssd" }

// NullModel charges nothing; useful when only op counts matter.
type NullModel struct{}

// Access implements CostModel.
func (NullModel) Access(prev, cur uint64, write bool) time.Duration { return 0 }

// Name implements CostModel.
func (NullModel) Name() string { return "null" }

// Stats is a snapshot of SimDevice accounting.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	// VirtualTime is the total modelled device time. It is accumulated,
	// not slept, so experiments are fast and deterministic.
	VirtualTime time.Duration
	// SeqAccesses counts accesses at prev+1 (sequential).
	SeqAccesses int64
}

// Ops returns total operations.
func (s Stats) Ops() int64 { return s.Reads + s.Writes }

// Sub returns s minus base, for before/after deltas.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Reads:        s.Reads - base.Reads,
		Writes:       s.Writes - base.Writes,
		BytesRead:    s.BytesRead - base.BytesRead,
		BytesWritten: s.BytesWritten - base.BytesWritten,
		VirtualTime:  s.VirtualTime - base.VirtualTime,
		SeqAccesses:  s.SeqAccesses - base.SeqAccesses,
	}
}

// SimDevice wraps a Device with cost-model accounting.
type SimDevice struct {
	inner Device
	model CostModel

	mu   sync.Mutex // serializes prev-position updates
	prev uint64

	reads        atomic.Int64
	writes       atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	vtime        atomic.Int64
	seq          atomic.Int64
}

// NewSim wraps dev with the given cost model.
func NewSim(dev Device, model CostModel) *SimDevice {
	if model == nil {
		model = NullModel{}
	}
	return &SimDevice{inner: dev, model: model}
}

// Model returns the device's cost model.
func (d *SimDevice) Model() CostModel { return d.model }

func (d *SimDevice) charge(n uint64, write bool) {
	d.mu.Lock()
	prev := d.prev
	d.prev = n
	d.mu.Unlock()
	if n == prev+1 {
		d.seq.Add(1)
	}
	d.vtime.Add(int64(d.model.Access(prev, n, write)))
}

// ReadBlock implements Device.
func (d *SimDevice) ReadBlock(n uint64, p []byte) error {
	if err := d.inner.ReadBlock(n, p); err != nil {
		return err
	}
	d.charge(n, false)
	d.reads.Add(1)
	d.bytesRead.Add(int64(len(p)))
	return nil
}

// WriteBlock implements Device.
func (d *SimDevice) WriteBlock(n uint64, p []byte) error {
	if err := d.inner.WriteBlock(n, p); err != nil {
		return err
	}
	d.charge(n, true)
	d.writes.Add(1)
	d.bytesWritten.Add(int64(len(p)))
	return nil
}

// BlockSize implements Device.
func (d *SimDevice) BlockSize() int { return d.inner.BlockSize() }

// NumBlocks implements Device.
func (d *SimDevice) NumBlocks() uint64 { return d.inner.NumBlocks() }

// Sync implements Device.
func (d *SimDevice) Sync() error { return d.inner.Sync() }

// Close implements Device.
func (d *SimDevice) Close() error { return d.inner.Close() }

// Stats returns a snapshot of accumulated accounting.
func (d *SimDevice) Stats() Stats {
	return Stats{
		Reads:        d.reads.Load(),
		Writes:       d.writes.Load(),
		BytesRead:    d.bytesRead.Load(),
		BytesWritten: d.bytesWritten.Load(),
		VirtualTime:  time.Duration(d.vtime.Load()),
		SeqAccesses:  d.seq.Load(),
	}
}

// ResetStats zeroes all accounting counters.
func (d *SimDevice) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
	d.bytesRead.Store(0)
	d.bytesWritten.Store(0)
	d.vtime.Store(0)
	d.seq.Store(0)
}

// FaultKind selects what corruption a FaultRule injects.
type FaultKind int

const (
	// FaultError fails the operation with ErrInjected (transient EIO).
	FaultError FaultKind = iota
	// FaultBitFlip flips one seeded-random bit. On reads the flip is in
	// the returned buffer only (an uncorrectable-read returning garbage);
	// on writes the flipped image is what lands on the device (bit rot
	// introduced in the write path), while the write still acks success.
	FaultBitFlip
	// FaultLostWrite acks the write but persists nothing.
	FaultLostWrite
	// FaultMisdirected acks the write but persists it at a seeded-random
	// other block inside the rule's range, clobbering a neighbour and
	// leaving the intended block stale. Write-only.
	FaultMisdirected
	// FaultTornWrite persists the first half of the block (old second
	// half intact) and fails with ErrInjected, like the legacy
	// SetTornWrites path but rule-scheduled. Write-only.
	FaultTornWrite
)

// FaultOp selects which operations a FaultRule matches.
type FaultOp int

const (
	// OpWrite matches WriteBlock.
	OpWrite FaultOp = iota
	// OpRead matches ReadBlock.
	OpRead
)

// FaultRule schedules one class of injected fault. Zero values widen the
// rule: Hi == 0 covers the whole device, Prob == 0 fires on every match,
// Count == 0 never exhausts.
type FaultRule struct {
	Kind FaultKind
	Op   FaultOp
	// Lo, Hi restrict the rule to blocks in [Lo, Hi); Hi == 0 means the
	// whole device.
	Lo, Hi uint64
	// After skips the first After matching operations before the rule
	// becomes eligible, so a fault can be planted deep in a workload.
	After int64
	// Prob fires the rule with this probability per eligible operation
	// (seeded via Seed); 0 or >= 1 fires deterministically.
	Prob float64
	// Count caps total firings; 0 is unlimited.
	Count int64
}

// Rule is an armed FaultRule plus firing statistics.
type Rule struct {
	FaultRule
	seen  int64 // matching ops observed (including skipped/non-fired)
	fired atomic.Int64
}

// Fired reports how many times the rule has injected its fault.
func (r *Rule) Fired() int64 { return r.fired.Load() }

// faultAction is one resolved injection: the kind plus any seeded-random
// choices (made under the device lock so runs are deterministic).
type faultAction struct {
	kind    FaultKind
	byteOff int
	bit     uint
	target  uint64
}

// FaultDevice wraps a Device and injects faults two ways: a legacy write
// countdown (FailAfterWrites, with optional torn final write) that models
// a crash, and a seeded rule matrix (AddRule) that models media faults —
// bit rot, lost writes, misdirected writes, probabilistic read errors —
// scheduled by operation count, block range, and probability.
type FaultDevice struct {
	inner Device

	remaining atomic.Int64 // writes allowed before faulting; <0 = unlimited
	failReads atomic.Bool
	torn      atomic.Bool
	tripped   atomic.Bool

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*Rule
}

// NewFault wraps dev with fault injection disarmed (unlimited writes,
// no rules). The rule matrix is deterministically seeded; use Seed to
// vary runs.
func NewFault(dev Device) *FaultDevice {
	f := &FaultDevice{inner: dev, rng: rand.New(rand.NewSource(1))}
	f.remaining.Store(-1)
	return f
}

// Seed reseeds the rule matrix's randomness (bit positions, misdirect
// targets, probabilistic firing). Same seed + same schedule + same
// workload = same faults.
func (f *FaultDevice) Seed(seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rng = rand.New(rand.NewSource(seed))
}

// AddRule arms a corruption rule and returns a handle exposing how often
// it fired. Rules are evaluated in insertion order; the first rule that
// fires on an operation wins.
func (f *FaultDevice) AddRule(r FaultRule) *Rule {
	f.mu.Lock()
	defer f.mu.Unlock()
	rule := &Rule{FaultRule: r}
	f.rules = append(f.rules, rule)
	return rule
}

// ClearRules removes every armed rule (the countdown is untouched).
func (f *FaultDevice) ClearRules() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// pick resolves the first firing rule for the operation, making all
// random choices under the lock.
func (f *FaultDevice) pick(op FaultOp, n uint64, blockLen int) (faultAction, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if r.Op != op {
			continue
		}
		if n < r.Lo || (r.Hi != 0 && n >= r.Hi) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count != 0 && r.fired.Load() >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && f.rng.Float64() >= r.Prob {
			continue
		}
		r.fired.Add(1)
		act := faultAction{kind: r.Kind}
		switch r.Kind {
		case FaultBitFlip:
			act.byteOff = f.rng.Intn(blockLen)
			act.bit = uint(f.rng.Intn(8))
		case FaultMisdirected:
			lo, hi := r.Lo, r.Hi
			if hi == 0 {
				hi = f.inner.NumBlocks()
			}
			if hi-lo > 1 {
				for {
					act.target = lo + uint64(f.rng.Int63n(int64(hi-lo)))
					if act.target != n {
						break
					}
				}
			} else {
				act.target = n // degenerate one-block range: self-directed
			}
		}
		return act, true
	}
	return faultAction{}, false
}

// FailAfterWrites arms the device to allow n more successful writes and
// then fail every subsequent write with ErrInjected.
func (f *FaultDevice) FailAfterWrites(n int64) {
	f.tripped.Store(false)
	f.remaining.Store(n)
}

// Disarm removes any pending fault: the countdown, the read-failure
// latch, and every armed rule.
func (f *FaultDevice) Disarm() {
	f.remaining.Store(-1)
	f.tripped.Store(false)
	f.failReads.Store(false)
	f.ClearRules()
}

// SetTornWrites makes the faulting write persist only the first half of
// the block before returning ErrInjected, modelling a torn sector write.
func (f *FaultDevice) SetTornWrites(v bool) { f.torn.Store(v) }

// SetFailReads makes reads also fail once the device has tripped.
func (f *FaultDevice) SetFailReads(v bool) { f.failReads.Store(v) }

// Tripped reports whether an injected fault has fired.
func (f *FaultDevice) Tripped() bool { return f.tripped.Load() }

// ReadBlock implements Device.
func (f *FaultDevice) ReadBlock(n uint64, p []byte) error {
	if f.tripped.Load() && f.failReads.Load() {
		return ErrInjected
	}
	act, ok := f.pick(OpRead, n, len(p))
	if ok && act.kind == FaultError {
		return ErrInjected
	}
	if err := f.inner.ReadBlock(n, p); err != nil {
		return err
	}
	if ok && act.kind == FaultBitFlip {
		p[act.byteOff] ^= 1 << act.bit
	}
	return nil
}

// WriteBlock implements Device.
func (f *FaultDevice) WriteBlock(n uint64, p []byte) error {
	if act, ok := f.pick(OpWrite, n, len(p)); ok {
		switch act.kind {
		case FaultError:
			return ErrInjected
		case FaultLostWrite:
			return nil // acked, dropped
		case FaultMisdirected:
			return f.inner.WriteBlock(act.target, p)
		case FaultBitFlip:
			flipped := make([]byte, len(p))
			copy(flipped, p)
			flipped[act.byteOff] ^= 1 << act.bit
			return f.inner.WriteBlock(n, flipped)
		case FaultTornWrite:
			half := make([]byte, len(p))
			copy(half, p[:len(p)/2])
			orig := make([]byte, len(p))
			if err := f.inner.ReadBlock(n, orig); err == nil {
				copy(half[len(p)/2:], orig[len(p)/2:])
			}
			_ = f.inner.WriteBlock(n, half)
			return ErrInjected
		}
	}
	for {
		cur := f.remaining.Load()
		if cur < 0 {
			return f.inner.WriteBlock(n, p)
		}
		if cur == 0 {
			f.tripped.Store(true)
			if f.torn.Load() {
				// Persist a torn half-block, then report failure.
				half := make([]byte, len(p))
				copy(half, p[:len(p)/2])
				orig := make([]byte, len(p))
				if err := f.inner.ReadBlock(n, orig); err == nil {
					copy(half[len(p)/2:], orig[len(p)/2:])
				}
				_ = f.inner.WriteBlock(n, half)
				f.torn.Store(false) // tear only the first failed write
			}
			return ErrInjected
		}
		if f.remaining.CompareAndSwap(cur, cur-1) {
			return f.inner.WriteBlock(n, p)
		}
	}
}

// BlockSize implements Device.
func (f *FaultDevice) BlockSize() int { return f.inner.BlockSize() }

// NumBlocks implements Device.
func (f *FaultDevice) NumBlocks() uint64 { return f.inner.NumBlocks() }

// Sync implements Device.
func (f *FaultDevice) Sync() error {
	if f.tripped.Load() {
		return ErrInjected
	}
	return f.inner.Sync()
}

// Close implements Device.
func (f *FaultDevice) Close() error { return f.inner.Close() }
