// Package buddy implements the binary buddy storage allocator the paper
// names as the lowest layer of the hFAD OSD (Knuth, The Art of Computer
// Programming vol. 1). It hands out power-of-two runs of blocks from a
// managed range, merges freed buddies eagerly, and can snapshot and restore
// its state so a volume can persist allocator state across open/close.
//
// The allocator counts in sectors, an eighth of a block each (512 bytes
// at 4 KiB blocks), so that a block carved into slots — aligned
// power-of-two parts of one block, the way FFS splits a block into
// fragments — needs no structure of its own: limbo, the snapshot,
// AllocSectorsAt, FromUsedSectors, IsFreeSectors and CheckFreeIntegrity
// cover a slot as they cover a run of blocks. One rule keeps slots
// write-once: Alloc never returns less than a block. A run smaller than a
// block comes only from carving a block its owner has just allocated;
// once freed it waits on a free list until its buddies are freed too and
// the block coalesces. A block that holds a live slot is therefore never
// handed out again. The free sectors of such a block are stranded: free,
// but of no use to Alloc until the block coalesces (Stats.Stranded).
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

const maxOrders = 51 // supports up to 2^50 sectors; far beyond any test device

// SectorShift is log2 of SectorsPerBlock.
const SectorShift = 3

// SectorsPerBlock is the number of sectors in a block: the allocator's
// unit is a sector, and a whole block is a run of order SectorShift.
const SectorsPerBlock = 1 << SectorShift

// Allocator manages the block range [Base, Base+Size), which is the sector
// range [Base*SectorsPerBlock, (Base+Size)*SectorsPerBlock).
type Allocator struct {
	mu   sync.Mutex
	base uint64 // in blocks
	size uint64 // in blocks
	// free[k] holds sorted base-relative sector addresses of free chunks
	// of 2^k sectors.
	free [maxOrders][]uint64

	freeSectors uint64
	allocCalls  uint64
	freeCalls   uint64
	splitCount  uint64
	mergeCount  uint64
	failedAlloc uint64

	// Deferred (limbo) frees. While enabled, Free parks runs on the limbo
	// list instead of returning them to the free lists; ReleaseLimbo
	// performs the real frees. Volumes enable this so a run freed by an
	// operation cannot be reallocated — and overwritten — before the
	// free is durable: object bytes are written in place,
	// outside the log, so if the freeing transaction never commits (or is
	// rolled back) while a reuser's does, both the old structure (still
	// live on disk) and the new one would own the blocks. Limbo drains at
	// checkpoints, when everything referencing the old run is durably
	// gone; the checkpoint's snapshot already counts it free
	// (SnapshotReleased).
	deferFrees bool
	limbo      map[uint64]uint64 // parked run's first sector → the sectors it was freed with
	limboTotal uint64            // in sectors
}

// New creates an allocator over [base, base+size). Size need not be a
// power of two; the range is decomposed greedily into maximal aligned
// chunks.
func New(base, size uint64) *Allocator {
	a := &Allocator{base: base, size: size}
	a.addGap(0, a.sectors())
	return a
}

// sectors is the size of the managed range in sectors.
func (a *Allocator) sectors() uint64 { return a.size << SectorShift }

// addGap puts the free sectors [lo, hi) on the free lists as maximal
// chunks aligned to their own size.
func (a *Allocator) addGap(lo, hi uint64) {
	for lo < hi {
		// Largest order allowed by alignment of lo.
		k := maxOrders - 1
		if lo != 0 && bits.TrailingZeros64(lo) < k {
			k = bits.TrailingZeros64(lo)
		}
		// Largest order that fits in the remaining space.
		for k > 0 && lo+(uint64(1)<<k) > hi {
			k--
		}
		a.free[k] = append(a.free[k], lo)
		a.freeSectors += uint64(1) << k
		lo += uint64(1) << k
	}
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

// AllocPage reserves one block: a btree's page.
func (a *Allocator) AllocPage() (uint64, error) { return a.Alloc(1) }

// FreePage frees one block AllocPage reserved.
func (a *Allocator) FreePage(no uint64) error { return a.Free(no, 1) }

// Alloc reserves a run of at least n blocks and returns its absolute
// starting block address. The reservation is RoundUp(n) blocks; Free must
// be called with the same n (or its round-up). It never returns less than
// a block, so it never takes a chunk a carved block's free slots left.
func (a *Allocator) Alloc(n uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("%w: zero-length alloc", ErrBadSize)
	}
	k := orderFor(n) + SectorShift
	a.mu.Lock()
	defer a.mu.Unlock()
	// Find the smallest order >= k with a free chunk.
	j := k
	for j < maxOrders && len(a.free[j]) == 0 {
		j++
	}
	if j >= maxOrders {
		a.failedAlloc++
		return 0, fmt.Errorf("%w: want %d blocks, %d free", ErrNoSpace, n, a.freeBlocksLocked())
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
	a.freeSectors -= uint64(1) << k
	return a.base + addr>>SectorShift, nil
}

// AllocSectorsAt reserves the specific run of sectors [addr,
// addr+RoundUp(n)).
// It is the redo of a logged allocation — recovery restores a
// checkpoint's snapshot and replays the log tail's allocations onto it,
// so it must take exactly the sectors the original allocation took — and
// the inverse of a free that is rolled back. A run a deferred free parked
// in limbo comes back out of limbo; any other run must be wholly free.
func (a *Allocator) AllocSectorsAt(addr, n uint64) error {
	if n == 0 {
		return fmt.Errorf("%w: zero-length alloc", ErrBadSize)
	}
	k := orderFor(n)
	sz := uint64(1) << k
	sbase := a.base << SectorShift
	if addr < sbase || addr-sbase+sz > a.sectors() || (addr-sbase)&(sz-1) != 0 {
		return fmt.Errorf("%w: run [%d,+%d) outside range or misaligned", ErrBadFree, addr, sz)
	}
	rel := addr - sbase
	a.mu.Lock()
	defer a.mu.Unlock()
	if parked, ok := a.limbo[addr]; ok && RoundUp(parked) == sz {
		delete(a.limbo, addr)
		a.limboTotal -= sz
		return nil
	}
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
		a.freeSectors -= sz
		return nil
	}
	return fmt.Errorf("%w: sector run [%d,+%d) is not free", ErrBadFree, rel, sz)
}

// SetDeferredFrees toggles limbo mode (see the field comment). Frees
// already parked stay parked until ReleaseLimbo.
func (a *Allocator) SetDeferredFrees(on bool) {
	a.mu.Lock()
	a.deferFrees = on
	a.mu.Unlock()
}

// LimboBlocks returns the number of whole blocks' worth of sectors parked
// by deferred frees.
func (a *Allocator) LimboBlocks() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.limboTotal >> SectorShift
}

// SectorCounts returns the free sectors (stranded ones included) and the
// sectors parked by deferred frees. fsck counts limbo alongside free
// space: it is owned by no structure but not yet reusable.
func (a *Allocator) SectorCounts() (free, limbo uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.freeSectors, a.limboTotal
}

// ReleaseLimbo performs every deferred free, in address order. Call only
// at a point where the freed runs are durably unreferenced (after a
// checkpoint or clean flush).
func (a *Allocator) ReleaseLimbo() error {
	a.mu.Lock()
	runs := a.limboRunsLocked()
	a.limbo = nil
	a.limboTotal = 0
	a.mu.Unlock()
	for _, r := range runs {
		if err := a.freeNow(r[0], r[1]); err != nil {
			return err
		}
	}
	return nil
}

// limboRunsLocked lists the parked runs as {addr, n} in address order,
// so that releasing them — every free merging with its buddies, or a
// release that stops at a bad run — does not depend on map order.
func (a *Allocator) limboRunsLocked() [][2]uint64 {
	runs := make([][2]uint64, 0, len(a.limbo))
	for addr, n := range a.limbo {
		runs = append(runs, [2]uint64{addr, n})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i][0] < runs[j][0] })
	return runs
}

// Free releases the run previously returned by Alloc(addr, n): FreeSectors
// for a run of whole blocks.
func (a *Allocator) Free(addr, n uint64) error {
	return a.FreeSectors(addr<<SectorShift, n<<SectorShift)
}

// FreeSectors releases the run of sectors at addr that an allocation took:
// a run of whole blocks Alloc returned, or a slot carved from a block its
// owner allocated. The n must match that run (any value with the same
// RoundUp): a slot is freed with its own size, never as part of its
// block. Freed sectors merge with their free buddies, so a block whose
// every slot is free is a whole free block again. In deferred mode the
// run is parked in limbo until ReleaseLimbo.
func (a *Allocator) FreeSectors(addr, n uint64) error {
	a.mu.Lock()
	if a.deferFrees {
		defer a.mu.Unlock()
		if _, ok := a.limbo[addr]; ok {
			return fmt.Errorf("%w: sectors [%d,+%d) are already in limbo", ErrDoubleFree, addr, RoundUp(n))
		}
		if a.limbo == nil {
			a.limbo = make(map[uint64]uint64)
		}
		a.limbo[addr] = n
		a.limboTotal += RoundUp(n)
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
	sbase := a.base << SectorShift
	if addr < sbase {
		return fmt.Errorf("%w: sector %d below base %d", ErrBadFree, addr, sbase)
	}
	rel := addr - sbase
	k := orderFor(n)
	sz := uint64(1) << k
	if rel+sz > a.sectors() {
		return fmt.Errorf("%w: sectors [%d,+%d) beyond range size %d", ErrBadFree, rel, sz, a.sectors())
	}
	if rel&(sz-1) != 0 {
		return fmt.Errorf("%w: sector %d not aligned to order %d", ErrBadFree, addr, k)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.overlapsFreeLocked(rel, k) {
		return fmt.Errorf("%w: sectors [%d,+%d)", ErrDoubleFree, rel, sz)
	}
	a.freeCalls++
	a.freeSectors += sz
	// Merge with buddy while possible.
	for k < maxOrders-1 {
		buddy := rel ^ (uint64(1) << k)
		if buddy+(uint64(1)<<k) > a.sectors() {
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
	Base, Size uint64
	// FreeBlocks counts the whole free blocks, which Alloc can hand out;
	// UsedBlocks every other block: each holds a live sector, or one
	// parked in limbo.
	FreeBlocks uint64
	UsedBlocks uint64
	// Stranded counts the free sectors of used blocks: a carved block's
	// freed slots, which wait for the rest of their block.
	Stranded     uint64
	LargestFree  uint64 // blocks in the largest free chunk
	FreeChunks   int
	AllocCalls   uint64
	FreeCalls    uint64
	Splits       uint64
	Merges       uint64
	FailedAllocs uint64
}

// StrandedBlocks is Stranded in blocks.
func (s Stats) StrandedBlocks() float64 { return float64(s.Stranded) / SectorsPerBlock }

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
	free := a.freeBlocksLocked()
	s := Stats{
		Base:         a.base,
		Size:         a.size,
		FreeBlocks:   free,
		UsedBlocks:   a.size - free,
		Stranded:     a.freeSectors - free<<SectorShift,
		AllocCalls:   a.allocCalls,
		FreeCalls:    a.freeCalls,
		Splits:       a.splitCount,
		Merges:       a.mergeCount,
		FailedAllocs: a.failedAlloc,
	}
	for k := maxOrders - 1; k >= SectorShift; k-- {
		if n := len(a.free[k]); n > 0 {
			if s.LargestFree == 0 {
				s.LargestFree = uint64(1) << (k - SectorShift)
			}
			s.FreeChunks += n
		}
	}
	return s
}

// FreeBlocks returns the number of whole free blocks.
func (a *Allocator) FreeBlocks() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.freeBlocksLocked()
}

// freeBlocksLocked sums the free chunks of a block or more. Buddies merge
// eagerly, so a block with no used sector is always one such chunk or part
// of one: the smaller chunks are exactly the stranded sectors.
func (a *Allocator) freeBlocksLocked() uint64 {
	stranded := uint64(0)
	for k := 0; k < SectorShift; k++ {
		stranded += uint64(len(a.free[k])) << k
	}
	return (a.freeSectors - stranded) >> SectorShift
}

const snapMagic = 0xb0dd1e5a

// Snapshot serializes the allocator's free lists, in sectors. The
// snapshot is self-describing and validated on Restore.
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
	c := &Allocator{base: a.base, size: a.size, freeSectors: a.freeSectors}
	for k := range a.free {
		c.free[k] = append([]uint64(nil), a.free[k]...)
	}
	runs := a.limboRunsLocked()
	a.mu.Unlock()
	for _, r := range runs {
		if err := c.freeNow(r[0], r[1]); err != nil {
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
	sectors := a.sectors()
	if sectors>>SectorShift != size {
		return nil, ErrCorrupt
	}
	var freeTotal uint64
	for k := 0; k < maxOrders; k++ {
		n, err := get64()
		if err != nil {
			return nil, err
		}
		if n > sectors {
			return nil, ErrCorrupt
		}
		fl := make([]uint64, n)
		for i := range fl {
			v, err := get64()
			if err != nil {
				return nil, err
			}
			if v+(uint64(1)<<k) > sectors || v&(uint64(1)<<k-1) != 0 {
				return nil, fmt.Errorf("%w: chunk beyond range or misaligned", ErrCorrupt)
			}
			fl[i] = v
		}
		if !sort.SliceIsSorted(fl, func(i, j int) bool { return fl[i] < fl[j] }) {
			return nil, fmt.Errorf("%w: unsorted free list", ErrCorrupt)
		}
		a.free[k] = fl
		freeTotal += n << k
	}
	if freeTotal > sectors {
		return nil, fmt.Errorf("%w: free total %d exceeds size %d", ErrCorrupt, freeTotal, sectors)
	}
	a.freeSectors = freeTotal
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
	a.freeSectors = src.freeSectors
	a.limbo, a.limboTotal = nil, 0
	return nil
}

// IsFreeSectors reports whether any sector of [s, s+n) is currently on a
// free list. Used by fsck to cross-check reachability against allocation.
func (a *Allocator) IsFreeSectors(s, n uint64) bool {
	sbase := a.base << SectorShift
	if s < sbase {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.overlapsFreeLocked(s-sbase, orderFor(n))
}

// FromUsedSectors reconstructs an allocator for the blocks [base,
// base+size) in which the given absolute sector ranges are allocated and
// everything else is free. This is the allocator's definition — what
// fsck holds it to — and the volume's repair when a crashed device offers
// no snapshot to restore: walk all reachable structures and rebuild
// allocator state from them. Ranges may be unsorted but must not overlap
// or leave the region.
func FromUsedSectors(base, size uint64, used [][2]uint64) (*Allocator, error) {
	a := &Allocator{base: base, size: size}
	sbase, sectors := base<<SectorShift, a.sectors()
	rel := make([][2]uint64, 0, len(used))
	for _, r := range used {
		if r[1] <= r[0] {
			return nil, fmt.Errorf("%w: empty used range", ErrBadSize)
		}
		if r[0] < sbase || r[1] > sbase+sectors {
			return nil, fmt.Errorf("%w: used sectors [%d,%d) outside region", ErrBadFree, r[0], r[1])
		}
		rel = append(rel, [2]uint64{r[0] - sbase, r[1] - sbase})
	}
	sort.Slice(rel, func(i, j int) bool { return rel[i][0] < rel[j][0] })
	for i := 1; i < len(rel); i++ {
		if rel[i][0] < rel[i-1][1] {
			return nil, fmt.Errorf("%w: overlapping used ranges", ErrBadFree)
		}
	}
	cursor := uint64(0)
	for _, r := range rel {
		if cursor < r[0] {
			a.addGap(cursor, r[0])
		}
		cursor = r[1]
	}
	if cursor < sectors {
		a.addGap(cursor, sectors)
	}
	return a, nil
}

// CheckFreeIntegrity verifies that no two free chunks overlap, that all
// lie within the managed range, and that the free count is their sum. It
// is O(chunks log chunks); used by fsck and property tests.
func (a *Allocator) CheckFreeIntegrity() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	type chunk struct{ lo, hi uint64 }
	var chunks []chunk
	var total uint64
	for k := 0; k < maxOrders; k++ {
		sz := uint64(1) << k
		total += uint64(len(a.free[k])) << k
		for _, addr := range a.free[k] {
			if addr+sz > a.sectors() {
				return fmt.Errorf("buddy: free chunk [%d,+%d) beyond size %d", addr, sz, a.sectors())
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
	if total != a.freeSectors {
		return fmt.Errorf("buddy: free lists hold %d sectors, the count says %d", total, a.freeSectors)
	}
	return nil
}
