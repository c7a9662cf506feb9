// Package buddy implements the binary buddy storage allocator the paper
// names as the lowest layer of the hFAD OSD (Knuth, The Art of Computer
// Programming vol. 1). It hands out power-of-two runs of blocks from a
// managed range, merges freed buddies eagerly, and can snapshot and restore
// its state so a volume can persist allocator state across open/close.
//
// Free lists are kept as sorted slices so allocation order is deterministic
// (lowest address first), which keeps layout experiments reproducible.
package buddy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// Allocator errors.
var (
	ErrNoSpace    = errors.New("buddy: out of space")
	ErrBadFree    = errors.New("buddy: invalid free")
	ErrBadSize    = errors.New("buddy: invalid size")
	ErrCorrupt    = errors.New("buddy: corrupt snapshot")
	ErrDoubleFree = errors.New("buddy: double free")
)

const maxOrders = 48 // supports up to 2^47 blocks; far beyond any test device

// Allocator manages the block range [Base, Base+Size).
type Allocator struct {
	mu   sync.Mutex
	base uint64
	size uint64
	// free[k] holds sorted base-relative addresses of free chunks of
	// 2^k blocks.
	free [maxOrders][]uint64

	freeBlocks  uint64
	allocCalls  uint64
	freeCalls   uint64
	splitCount  uint64
	mergeCount  uint64
	failedAlloc uint64

	// Deferred (limbo) frees. While enabled, Free parks runs on the limbo
	// list instead of returning them to the free lists; ReleaseLimbo
	// performs the real frees. Transactional volumes enable this so a run
	// freed by an operation cannot be reallocated — and overwritten —
	// before the free is durable: object bytes are written in place,
	// outside the log, so if the freeing transaction never commits (or is
	// rolled back) while a reuser's does, both the old structure (still
	// live on disk) and the new one would own the blocks. Limbo drains at
	// checkpoints, when everything referencing the old run is durably
	// gone; the checkpoint's snapshot already counts it free
	// (SnapshotReleased).
	deferFrees bool
	limbo      []limboRun
	limboTotal uint64
}

type limboRun struct{ addr, n uint64 }

// New creates an allocator over [base, base+size). Size need not be a
// power of two; the range is decomposed greedily into maximal aligned
// chunks.
func New(base, size uint64) *Allocator {
	a := &Allocator{base: base, size: size}
	// Decompose [0, size) into maximal chunks aligned to their own size.
	addr := uint64(0)
	for addr < size {
		// Largest order allowed by alignment of addr.
		k := maxOrders - 1
		if addr != 0 && bits.TrailingZeros64(addr) < k {
			k = bits.TrailingZeros64(addr)
		}
		// Largest order that fits in the remaining space.
		for k > 0 && addr+(uint64(1)<<k) > size {
			k--
		}
		a.free[k] = append(a.free[k], addr)
		addr += uint64(1) << k
	}
	a.freeBlocks = size
	return a
}

// Base returns the first managed block address.
func (a *Allocator) Base() uint64 { return a.base }

// Size returns the number of managed blocks.
func (a *Allocator) Size() uint64 { return a.size }

// orderFor returns the smallest k with 2^k >= n.
func orderFor(n uint64) int {
	if n <= 1 {
		return 0
	}
	return 64 - bits.LeadingZeros64(n-1)
}

// RoundUp returns the number of blocks actually reserved for a request of
// n blocks (the enclosing power of two).
func RoundUp(n uint64) uint64 {
	return uint64(1) << orderFor(n)
}

// Alloc reserves a run of at least n blocks and returns its absolute
// starting block address. The reservation is RoundUp(n) blocks; Free must
// be called with the same n (or its round-up).
func (a *Allocator) Alloc(n uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("%w: zero-length alloc", ErrBadSize)
	}
	k := orderFor(n)
	a.mu.Lock()
	defer a.mu.Unlock()
	// Find the smallest order >= k with a free chunk.
	j := k
	for j < maxOrders && len(a.free[j]) == 0 {
		j++
	}
	if j >= maxOrders {
		a.failedAlloc++
		return 0, fmt.Errorf("%w: want %d blocks (order %d), %d free", ErrNoSpace, n, k, a.freeBlocks)
	}
	// Take the lowest-addressed chunk at order j.
	addr := a.free[j][0]
	a.free[j] = a.free[j][1:]
	// Split down to order k, returning upper halves to the free lists.
	for j > k {
		j--
		a.splitCount++
		upper := addr + (uint64(1) << j)
		a.insertFree(j, upper)
	}
	a.allocCalls++
	a.freeBlocks -= uint64(1) << k
	return a.base + addr, nil
}

// AllocAt reserves the specific run [addr, addr+RoundUp(n)) — the redo of
// a logged allocation: recovery restores a checkpoint's snapshot and
// replays the log tail's allocations onto it, so it must take exactly the
// blocks the original Alloc took. The run must be wholly free.
func (a *Allocator) AllocAt(addr, n uint64) error {
	if n == 0 {
		return fmt.Errorf("%w: zero-length alloc", ErrBadSize)
	}
	k := orderFor(n)
	sz := uint64(1) << k
	if addr < a.base || addr-a.base+sz > a.size || (addr-a.base)&(sz-1) != 0 {
		return fmt.Errorf("%w: run [%d,+%d) outside range or misaligned", ErrBadFree, addr, sz)
	}
	rel := addr - a.base
	a.mu.Lock()
	defer a.mu.Unlock()
	// The free chunk holding the run is the one enclosing aligned chunk,
	// at some order j >= k, that sits on a free list.
	for j := k; j < maxOrders; j++ {
		chunk := rel &^ (uint64(1)<<j - 1)
		if !a.removeFree(j, chunk) {
			continue
		}
		// Split down to order k, returning the halves that do not hold
		// the run to the free lists.
		for j > k {
			j--
			a.splitCount++
			half := chunk + uint64(1)<<j
			if rel >= half {
				a.insertFree(j, chunk)
				chunk = half
			} else {
				a.insertFree(j, half)
			}
		}
		a.allocCalls++
		a.freeBlocks -= sz
		return nil
	}
	return fmt.Errorf("%w: run [%d,+%d) is not free", ErrBadFree, rel, sz)
}

// SetDeferredFrees toggles limbo mode (see the field comment). Frees
// already parked stay parked until ReleaseLimbo.
func (a *Allocator) SetDeferredFrees(on bool) {
	a.mu.Lock()
	a.deferFrees = on
	a.mu.Unlock()
}

// LimboBlocks returns the number of blocks parked by deferred frees.
// fsck counts them alongside free blocks: they are owned by no structure
// but not yet reusable.
func (a *Allocator) LimboBlocks() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.limboTotal
}

// ReleaseLimbo performs every deferred free. Call only at a point where
// the freed runs are durably unreferenced (after a checkpoint or clean
// flush).
func (a *Allocator) ReleaseLimbo() error {
	a.mu.Lock()
	runs := a.limbo
	a.limbo = nil
	a.limboTotal = 0
	a.mu.Unlock()
	for _, r := range runs {
		if err := a.freeNow(r.addr, r.n); err != nil {
			return err
		}
	}
	return nil
}

// Free releases the run previously returned by Alloc(addr, n). The n must
// match the allocation request (any value with the same RoundUp). In
// deferred mode the run is parked in limbo until ReleaseLimbo.
func (a *Allocator) Free(addr, n uint64) error {
	a.mu.Lock()
	if a.deferFrees {
		a.limbo = append(a.limbo, limboRun{addr, n})
		a.limboTotal += RoundUp(n)
		a.mu.Unlock()
		return nil
	}
	a.mu.Unlock()
	return a.freeNow(addr, n)
}

// freeNow is the real free.
func (a *Allocator) freeNow(addr, n uint64) error {
	if n == 0 {
		return fmt.Errorf("%w: zero-length free", ErrBadSize)
	}
	if addr < a.base {
		return fmt.Errorf("%w: address %d below base %d", ErrBadFree, addr, a.base)
	}
	rel := addr - a.base
	k := orderFor(n)
	sz := uint64(1) << k
	if rel+sz > a.size {
		return fmt.Errorf("%w: [%d,+%d) beyond range size %d", ErrBadFree, rel, sz, a.size)
	}
	if rel&(sz-1) != 0 {
		return fmt.Errorf("%w: address %d not aligned to order %d", ErrBadFree, addr, k)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.overlapsFreeLocked(rel, k) {
		return fmt.Errorf("%w: [%d,+%d)", ErrDoubleFree, rel, sz)
	}
	a.freeCalls++
	a.freeBlocks += sz
	// Merge with buddy while possible.
	for k < maxOrders-1 {
		buddy := rel ^ (uint64(1) << k)
		if buddy+(uint64(1)<<k) > a.size {
			break
		}
		if !a.removeFree(k, buddy) {
			break
		}
		a.mergeCount++
		if buddy < rel {
			rel = buddy
		}
		k++
	}
	a.insertFree(k, rel)
	return nil
}

// overlapsFreeLocked reports whether the chunk [rel, rel+2^k) overlaps any
// chunk currently on a free list. Used to detect double frees.
func (a *Allocator) overlapsFreeLocked(rel uint64, k int) bool {
	lo, hi := rel, rel+(uint64(1)<<k)
	for j := 0; j < maxOrders; j++ {
		fl := a.free[j]
		if len(fl) == 0 {
			continue
		}
		sz := uint64(1) << j
		// First chunk whose end is > lo.
		i := sort.Search(len(fl), func(i int) bool { return fl[i]+sz > lo })
		if i < len(fl) && fl[i] < hi {
			return true
		}
	}
	return false
}

func (a *Allocator) insertFree(k int, rel uint64) {
	fl := a.free[k]
	i := sort.Search(len(fl), func(i int) bool { return fl[i] >= rel })
	fl = append(fl, 0)
	copy(fl[i+1:], fl[i:])
	fl[i] = rel
	a.free[k] = fl
}

// removeFree removes rel from free list k, reporting whether it was found.
func (a *Allocator) removeFree(k int, rel uint64) bool {
	fl := a.free[k]
	i := sort.Search(len(fl), func(i int) bool { return fl[i] >= rel })
	if i >= len(fl) || fl[i] != rel {
		return false
	}
	a.free[k] = append(fl[:i], fl[i+1:]...)
	return true
}

// Stats describes allocator occupancy and churn.
type Stats struct {
	Base, Size   uint64
	FreeBlocks   uint64
	UsedBlocks   uint64
	LargestFree  uint64 // blocks in the largest free chunk
	FreeChunks   int
	AllocCalls   uint64
	FreeCalls    uint64
	Splits       uint64
	Merges       uint64
	FailedAllocs uint64
}

// Fragmentation returns 1 - largestFree/freeBlocks, the standard external
// fragmentation metric (0 when all free space is one chunk).
func (s Stats) Fragmentation() float64 {
	if s.FreeBlocks == 0 {
		return 0
	}
	return 1 - float64(s.LargestFree)/float64(s.FreeBlocks)
}

// Stats returns a snapshot of allocator state.
func (a *Allocator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Stats{
		Base:         a.base,
		Size:         a.size,
		FreeBlocks:   a.freeBlocks,
		UsedBlocks:   a.size - a.freeBlocks,
		AllocCalls:   a.allocCalls,
		FreeCalls:    a.freeCalls,
		Splits:       a.splitCount,
		Merges:       a.mergeCount,
		FailedAllocs: a.failedAlloc,
	}
	for k := maxOrders - 1; k >= 0; k-- {
		if n := len(a.free[k]); n > 0 {
			if s.LargestFree == 0 {
				s.LargestFree = uint64(1) << k
			}
			s.FreeChunks += n
		}
	}
	return s
}

// FreeBlocks returns the number of free blocks.
func (a *Allocator) FreeBlocks() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.freeBlocks
}

const snapMagic = 0xb0dd1e5a

// Snapshot serializes the allocator's free lists. The snapshot is
// self-describing and validated on Restore.
func (a *Allocator) Snapshot() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []byte
	var tmp [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	put64(snapMagic)
	put64(a.base)
	put64(a.size)
	for k := 0; k < maxOrders; k++ {
		put64(uint64(len(a.free[k])))
		for _, addr := range a.free[k] {
			put64(addr)
		}
	}
	return out
}

// SnapshotReleased is Snapshot of the state ReleaseLimbo would leave:
// every parked run counted free. A checkpoint persists this form before
// it releases limbo, so the durable snapshot describes the allocator as
// the checkpoint's generation boundary leaves it. The allocator itself
// is not changed.
func (a *Allocator) SnapshotReleased() ([]byte, error) {
	a.mu.Lock()
	c := &Allocator{base: a.base, size: a.size, freeBlocks: a.freeBlocks}
	for k := range a.free {
		c.free[k] = append([]uint64(nil), a.free[k]...)
	}
	runs := append([]limboRun(nil), a.limbo...)
	a.mu.Unlock()
	for _, r := range runs {
		if err := c.freeNow(r.addr, r.n); err != nil {
			return nil, err
		}
	}
	return c.Snapshot(), nil
}

// Restore reconstructs an allocator from a Snapshot.
func Restore(data []byte) (*Allocator, error) {
	pos := 0
	get64 := func() (uint64, error) {
		if pos+8 > len(data) {
			return 0, ErrCorrupt
		}
		v := binary.LittleEndian.Uint64(data[pos:])
		pos += 8
		return v, nil
	}
	magic, err := get64()
	if err != nil || magic != snapMagic {
		return nil, ErrCorrupt
	}
	base, err := get64()
	if err != nil {
		return nil, err
	}
	size, err := get64()
	if err != nil {
		return nil, err
	}
	a := &Allocator{base: base, size: size}
	var freeTotal uint64
	for k := 0; k < maxOrders; k++ {
		n, err := get64()
		if err != nil {
			return nil, err
		}
		if n > size {
			return nil, ErrCorrupt
		}
		fl := make([]uint64, n)
		for i := range fl {
			v, err := get64()
			if err != nil {
				return nil, err
			}
			if v+(uint64(1)<<k) > size {
				return nil, fmt.Errorf("%w: chunk beyond range", ErrCorrupt)
			}
			fl[i] = v
		}
		if !sort.SliceIsSorted(fl, func(i, j int) bool { return fl[i] < fl[j] }) {
			return nil, fmt.Errorf("%w: unsorted free list", ErrCorrupt)
		}
		a.free[k] = fl
		freeTotal += n << k
	}
	if freeTotal > size {
		return nil, fmt.Errorf("%w: free total %d exceeds size %d", ErrCorrupt, freeTotal, size)
	}
	a.freeBlocks = freeTotal
	return a, nil
}

// ReplaceWith copies src's free-list state into a, which must manage the
// same block range, and drops a's parked frees: src is the whole truth
// (the walk counts a parked run free already). Components that captured a
// pointer to a keep working against the replaced state — the volume's
// rebuild-by-walk relies on this.
func (a *Allocator) ReplaceWith(src *Allocator) error {
	if src.base != a.base || src.size != a.size {
		return fmt.Errorf("%w: geometry mismatch", ErrBadSize)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	for k := range a.free {
		a.free[k] = append([]uint64(nil), src.free[k]...)
	}
	a.freeBlocks = src.freeBlocks
	a.limbo, a.limboTotal = nil, 0
	return nil
}

// IsFree reports whether any block of [addr, addr+n) is currently on a
// free list. Used by fsck to cross-check reachability against allocation.
func (a *Allocator) IsFree(addr, n uint64) bool {
	if addr < a.base {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	k := orderFor(n)
	return a.overlapsFreeLocked(addr-a.base, k)
}

// FromUsed reconstructs an allocator for [base, base+size) in which the
// given absolute block ranges are allocated and everything else is free.
// This is the allocator's definition — what fsck holds it to — and the
// volume's repair when a crashed device offers no snapshot to restore:
// walk all reachable structures and rebuild allocator state from them.
// Ranges may be unsorted but must not overlap or leave the region.
func FromUsed(base, size uint64, used [][2]uint64) (*Allocator, error) {
	rel := make([][2]uint64, 0, len(used))
	for _, r := range used {
		if r[1] <= r[0] {
			return nil, fmt.Errorf("%w: empty used range", ErrBadSize)
		}
		if r[0] < base || r[1] > base+size {
			return nil, fmt.Errorf("%w: used range [%d,%d) outside region", ErrBadFree, r[0], r[1])
		}
		rel = append(rel, [2]uint64{r[0] - base, r[1] - base})
	}
	sort.Slice(rel, func(i, j int) bool { return rel[i][0] < rel[j][0] })
	for i := 1; i < len(rel); i++ {
		if rel[i][0] < rel[i-1][1] {
			return nil, fmt.Errorf("%w: overlapping used ranges", ErrBadFree)
		}
	}
	a := &Allocator{base: base, size: size}
	addGap := func(lo, hi uint64) {
		for lo < hi {
			k := maxOrders - 1
			if lo != 0 && bits.TrailingZeros64(lo) < k {
				k = bits.TrailingZeros64(lo)
			}
			for k > 0 && lo+(uint64(1)<<k) > hi {
				k--
			}
			a.free[k] = append(a.free[k], lo)
			a.freeBlocks += uint64(1) << k
			lo += uint64(1) << k
		}
	}
	cursor := uint64(0)
	for _, r := range rel {
		if cursor < r[0] {
			addGap(cursor, r[0])
		}
		cursor = r[1]
	}
	if cursor < size {
		addGap(cursor, size)
	}
	return a, nil
}

// CheckFreeIntegrity verifies that no two free chunks overlap and that all
// lie within the managed range. It is O(chunks log chunks); used by fsck
// and property tests.
func (a *Allocator) CheckFreeIntegrity() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	type chunk struct{ lo, hi uint64 }
	var chunks []chunk
	for k := 0; k < maxOrders; k++ {
		sz := uint64(1) << k
		for _, addr := range a.free[k] {
			if addr+sz > a.size {
				return fmt.Errorf("buddy: free chunk [%d,+%d) beyond size %d", addr, sz, a.size)
			}
			if addr&(sz-1) != 0 {
				return fmt.Errorf("buddy: free chunk %d misaligned for order %d", addr, k)
			}
			chunks = append(chunks, chunk{addr, addr + sz})
		}
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].lo < chunks[j].lo })
	for i := 1; i < len(chunks); i++ {
		if chunks[i].lo < chunks[i-1].hi {
			return fmt.Errorf("buddy: overlapping free chunks [%d,%d) and [%d,%d)",
				chunks[i-1].lo, chunks[i-1].hi, chunks[i].lo, chunks[i].hi)
		}
	}
	return nil
}
