package buddy

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestAllocFreeRoundtrip(t *testing.T) {
	a := New(0, 1024)
	addr, err := a.Alloc(16)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if a.FreeBlocks() != 1024-16 {
		t.Errorf("free = %d, want %d", a.FreeBlocks(), 1024-16)
	}
	if err := a.Free(addr, 16); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if a.FreeBlocks() != 1024 {
		t.Errorf("free after Free = %d, want 1024", a.FreeBlocks())
	}
	s := a.Stats()
	if s.LargestFree != 1024 {
		t.Errorf("largest free = %d, want fully merged 1024", s.LargestFree)
	}
}

func TestAllocRoundsUp(t *testing.T) {
	a := New(0, 64)
	if _, err := a.Alloc(5); err != nil { // reserves 8
		t.Fatal(err)
	}
	if got := a.FreeBlocks(); got != 56 {
		t.Errorf("free = %d, want 56 (5 rounds to 8)", got)
	}
}

func TestRoundUp(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {63, 64}, {64, 64}, {65, 128},
	}
	for _, c := range cases {
		if got := RoundUp(c.in); got != c.want {
			t.Errorf("RoundUp(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAllocAlignment(t *testing.T) {
	a := New(0, 4096)
	for _, n := range []uint64{1, 2, 4, 8, 16, 32, 64} {
		addr, err := a.Alloc(n)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		if addr%n != 0 {
			t.Errorf("Alloc(%d) = %d, not aligned", n, addr)
		}
	}
}

func TestAllocDeterministicLowestFirst(t *testing.T) {
	a := New(0, 256)
	a1, _ := a.Alloc(1)
	a2, _ := a.Alloc(1)
	if a1 != 0 || a2 != 1 {
		t.Errorf("first allocs at %d,%d; want 0,1 (lowest-address-first)", a1, a2)
	}
}

func TestBaseOffset(t *testing.T) {
	a := New(100, 64)
	addr, err := a.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if addr < 100 || addr+4 > 164 {
		t.Errorf("addr %d outside managed range [100,164)", addr)
	}
	if err := a.Free(addr, 4); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := a.Free(50, 4); !errors.Is(err, ErrBadFree) {
		t.Errorf("free below base = %v, want ErrBadFree", err)
	}
}

func TestExhaustion(t *testing.T) {
	a := New(0, 16)
	if _, err := a.Alloc(16); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Errorf("alloc from empty = %v, want ErrNoSpace", err)
	}
	if a.Stats().FailedAllocs != 1 {
		t.Errorf("FailedAllocs = %d, want 1", a.Stats().FailedAllocs)
	}
}

func TestAllocTooBig(t *testing.T) {
	a := New(0, 100) // decomposed: 64+32+4
	if _, err := a.Alloc(128); !errors.Is(err, ErrNoSpace) {
		t.Errorf("Alloc(128) = %v, want ErrNoSpace", err)
	}
	if _, err := a.Alloc(0); !errors.Is(err, ErrBadSize) {
		t.Errorf("Alloc(0) = %v, want ErrBadSize", err)
	}
}

func TestNonPowerOfTwoSizeFullyUsable(t *testing.T) {
	a := New(0, 100)
	total := uint64(0)
	for {
		addr, err := a.Alloc(1)
		if err != nil {
			break
		}
		if addr >= 100 {
			t.Fatalf("alloc at %d beyond size 100", addr)
		}
		total++
	}
	if total != 100 {
		t.Errorf("allocated %d singles from size-100 range, want 100", total)
	}
}

func TestBuddyMergeRestoresFullChunk(t *testing.T) {
	a := New(0, 64)
	var addrs []uint64
	for i := 0; i < 64; i++ {
		addr, err := a.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	// Free in a scrambled order; merging must still coalesce completely.
	rng := rand.New(rand.NewPCG(1, 2))
	rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	for _, addr := range addrs {
		if err := a.Free(addr, 1); err != nil {
			t.Fatalf("Free(%d): %v", addr, err)
		}
	}
	s := a.Stats()
	if s.LargestFree != 64 || s.FreeChunks != 1 {
		t.Errorf("after all frees: largest=%d chunks=%d, want 64/1", s.LargestFree, s.FreeChunks)
	}
	if s.Merges == 0 {
		t.Error("expected buddy merges to have occurred")
	}
}

func TestFreeValidation(t *testing.T) {
	a := New(0, 64)
	addr, _ := a.Alloc(8)
	if err := a.Free(addr+1, 8); !errors.Is(err, ErrBadFree) {
		t.Errorf("misaligned free = %v, want ErrBadFree", err)
	}
	if err := a.Free(addr, 0); !errors.Is(err, ErrBadSize) {
		t.Errorf("zero free = %v, want ErrBadSize", err)
	}
	if err := a.Free(60, 8); !errors.Is(err, ErrBadFree) {
		t.Errorf("beyond-range free = %v, want ErrBadFree", err)
	}
	if err := a.Free(addr, 8); err != nil {
		t.Fatalf("valid free failed: %v", err)
	}
	if err := a.Free(addr, 8); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("double free = %v, want ErrDoubleFree", err)
	}
}

func TestDoubleFreeAfterMergeDetected(t *testing.T) {
	a := New(0, 16)
	x, _ := a.Alloc(1) // 0
	y, _ := a.Alloc(1) // 1
	if err := a.Free(x, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(y, 1); err != nil {
		t.Fatal(err)
	}
	// x and y merged into a larger chunk; freeing x again must still fail.
	if err := a.Free(x, 1); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("double free after merge = %v, want ErrDoubleFree", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	a := New(7, 200)
	var live []uint64
	for i := 0; i < 10; i++ {
		addr, err := a.Alloc(uint64(1 + i%4))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, addr)
	}
	snap := a.Snapshot()
	b, err := Restore(snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if b.Base() != 7 || b.Size() != 200 {
		t.Errorf("restored geometry %d/%d, want 7/200", b.Base(), b.Size())
	}
	if b.FreeBlocks() != a.FreeBlocks() {
		t.Errorf("restored free = %d, want %d", b.FreeBlocks(), a.FreeBlocks())
	}
	// Restored allocator must accept frees of the live allocations.
	for i, addr := range live {
		if err := b.Free(addr, uint64(1+i%4)); err != nil {
			t.Fatalf("Free on restored: %v", err)
		}
	}
	if b.FreeBlocks() != 200 {
		t.Errorf("free after releasing all = %d, want 200", b.FreeBlocks())
	}
	if err := b.CheckFreeIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

func TestRestoreRejectsCorrupt(t *testing.T) {
	if _, err := Restore([]byte{1, 2, 3}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short snapshot = %v, want ErrCorrupt", err)
	}
	a := New(0, 64)
	snap := a.Snapshot()
	snap[0] ^= 0xFF // break magic
	if _, err := Restore(snap); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic = %v, want ErrCorrupt", err)
	}
}

func TestRandomOpsIntegrity(t *testing.T) {
	const size = 2048
	a := New(0, size)
	rng := rand.New(rand.NewPCG(42, 99))
	type alloc struct{ addr, n uint64 }
	var live []alloc
	for i := 0; i < 3000; i++ {
		if len(live) == 0 || rng.IntN(2) == 0 {
			n := uint64(1 + rng.IntN(32))
			addr, err := a.Alloc(n)
			if errors.Is(err, ErrNoSpace) {
				continue
			}
			if err != nil {
				t.Fatalf("Alloc: %v", err)
			}
			live = append(live, alloc{addr, n})
		} else {
			i := rng.IntN(len(live))
			v := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := a.Free(v.addr, v.n); err != nil {
				t.Fatalf("Free(%d,%d): %v", v.addr, v.n, err)
			}
		}
	}
	if err := a.CheckFreeIntegrity(); err != nil {
		t.Fatalf("integrity after random ops: %v", err)
	}
	// Verify live allocations don't overlap free space: free them all, then
	// the allocator must be whole again.
	for _, v := range live {
		if err := a.Free(v.addr, v.n); err != nil {
			t.Fatalf("final Free: %v", err)
		}
	}
	if a.FreeBlocks() != size {
		t.Errorf("free = %d, want %d", a.FreeBlocks(), size)
	}
	s := a.Stats()
	if s.FreeChunks != 1 {
		t.Errorf("free chunks = %d, want 1 (full coalescing)", s.FreeChunks)
	}
}

// TestAllocationsDisjoint is a property test: any sequence of successful
// allocations yields pairwise-disjoint block ranges.
func TestAllocationsDisjoint(t *testing.T) {
	f := func(sizes []uint8) bool {
		a := New(0, 4096)
		type iv struct{ lo, hi uint64 }
		var ivs []iv
		for _, s := range sizes {
			n := uint64(s%32) + 1
			addr, err := a.Alloc(n)
			if err != nil {
				continue
			}
			ivs = append(ivs, iv{addr, addr + RoundUp(n)})
		}
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentationMetric(t *testing.T) {
	s := Stats{FreeBlocks: 100, LargestFree: 100}
	if got := s.Fragmentation(); got != 0 {
		t.Errorf("single-chunk fragmentation = %v, want 0", got)
	}
	s = Stats{FreeBlocks: 100, LargestFree: 25}
	if got := s.Fragmentation(); got != 0.75 {
		t.Errorf("fragmentation = %v, want 0.75", got)
	}
	s = Stats{}
	if got := s.Fragmentation(); got != 0 {
		t.Errorf("empty fragmentation = %v, want 0", got)
	}
}

func TestStatsCounters(t *testing.T) {
	a := New(0, 64)
	addr, _ := a.Alloc(1) // splits from 64 down to 1: 6 splits
	s := a.Stats()
	if s.AllocCalls != 1 {
		t.Errorf("AllocCalls = %d, want 1", s.AllocCalls)
	}
	if s.Splits != 6 {
		t.Errorf("Splits = %d, want 6", s.Splits)
	}
	_ = a.Free(addr, 1)
	s = a.Stats()
	if s.FreeCalls != 1 || s.Merges != 6 {
		t.Errorf("FreeCalls=%d Merges=%d, want 1/6", s.FreeCalls, s.Merges)
	}
	if s.UsedBlocks != 0 {
		t.Errorf("UsedBlocks = %d, want 0", s.UsedBlocks)
	}
}

// TestDeferredFreesLimbo: with deferral on, freed runs are not reusable
// until ReleaseLimbo, and the accounting exposes them.
func TestDeferredFreesLimbo(t *testing.T) {
	a := New(0, 64)
	a.SetDeferredFrees(true)
	p, err := a.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	free0 := a.FreeBlocks()
	if err := a.Free(p, 4); err != nil {
		t.Fatal(err)
	}
	if a.FreeBlocks() != free0 {
		t.Fatalf("deferred free changed free count: %d -> %d", free0, a.FreeBlocks())
	}
	if a.LimboBlocks() != 4 {
		t.Fatalf("LimboBlocks = %d, want 4", a.LimboBlocks())
	}
	if isFree(a, p, 4) {
		t.Fatal("limbo run reported free")
	}
	if err := a.ReleaseLimbo(); err != nil {
		t.Fatal(err)
	}
	if a.LimboBlocks() != 0 || !isFree(a, p, 4) {
		t.Fatalf("after release: limbo=%d free=%v", a.LimboBlocks(), isFree(a, p, 4))
	}
	if err := a.CheckFreeIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocAtReplaysHistory is the property crash recovery rests on: take
// a snapshot at a "checkpoint", keep allocating and freeing, then replay
// the recorded mutations onto the restored snapshot with AllocAt and Free.
// The result must be the live allocator — and the allocator FromUsed
// builds from the live runs — free list for free list, on a range that
// is not a power of two.
func TestAllocAtReplaysHistory(t *testing.T) {
	const base, size = 37, 5000
	a := New(base, size)
	rng := rand.New(rand.NewPCG(7, 18))
	type run struct{ addr, n uint64 }
	type event struct {
		free bool
		run
	}
	var live []run
	var snap []byte
	var tail []event
	for i := 0; i < 4000; i++ {
		if i == 1500 {
			snap = a.Snapshot()
		}
		if len(live) == 0 || rng.IntN(5) < 3 {
			n := uint64(1 + rng.IntN(40))
			addr, err := a.Alloc(n)
			if errors.Is(err, ErrNoSpace) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, run{addr, n})
			if snap != nil {
				tail = append(tail, event{false, run{addr, n}})
			}
		} else {
			k := rng.IntN(len(live))
			r := live[k]
			live = append(live[:k], live[k+1:]...)
			if err := a.Free(r.addr, r.n); err != nil {
				t.Fatal(err)
			}
			if snap != nil {
				tail = append(tail, event{true, r})
			}
		}
	}
	b, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range tail {
		if e.free {
			err = b.Free(e.addr, e.n)
		} else {
			err = allocAt(b, e.addr, e.n)
		}
		if err != nil {
			t.Fatalf("tail event %d (%+v): %v", i, e, err)
		}
	}
	if !bytes.Equal(b.Snapshot(), a.Snapshot()) {
		t.Fatal("snapshot + replayed tail differs from the live allocator")
	}
	var used [][2]uint64
	for _, r := range live {
		used = append(used, [2]uint64{r.addr, r.addr + RoundUp(r.n)})
	}
	w, err := fromUsed(base, size, used)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Snapshot(), w.Snapshot()) {
		t.Fatal("replayed allocator differs from FromUsed over the live runs")
	}
	if err := b.CheckFreeIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocAtRejects: a run that is not wholly free, is misaligned for
// its order, or leaves the range cannot be taken.
func TestAllocAtRejects(t *testing.T) {
	a := New(10, 64)
	p, err := a.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		addr, n uint64
	}{
		{"allocated run", p, 4},
		{"run overlapping an allocated one", p, 8},
		{"misaligned", 10 + 6, 4},
		{"below base", 2, 1},
		{"beyond range", 10 + 64, 1},
	} {
		if err := allocAt(a, c.addr, c.n); !errors.Is(err, ErrBadFree) {
			t.Errorf("%s: AllocAt(%d,%d) = %v, want ErrBadFree", c.name, c.addr, c.n, err)
		}
	}
	if err := allocAt(a, 10+32, 0); !errors.Is(err, ErrBadSize) {
		t.Errorf("zero-length AllocAt = %v, want ErrBadSize", err)
	}
	if err := allocAt(a, 10+32, 16); err != nil {
		t.Fatalf("AllocAt of a free run: %v", err)
	}
	if isFree(a, 10+32, 16) || a.FreeBlocks() != 64-4-16 {
		t.Fatalf("after AllocAt: free=%d", a.FreeBlocks())
	}
}

// TestSnapshotReleasedCountsLimboFree: the checkpoint form of the
// snapshot equals the snapshot taken after ReleaseLimbo, and taking it
// leaves limbo parked.
func TestSnapshotReleasedCountsLimboFree(t *testing.T) {
	a := New(0, 256)
	a.SetDeferredFrees(true)
	var runs []uint64
	for i := 0; i < 12; i++ {
		p, err := a.Alloc(3)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, p)
	}
	for _, p := range runs[:7] {
		if err := a.Free(p, 3); err != nil {
			t.Fatal(err)
		}
	}
	got, err := a.SnapshotReleased()
	if err != nil {
		t.Fatal(err)
	}
	if a.LimboBlocks() != 7*4 {
		t.Fatalf("SnapshotReleased changed limbo: %d blocks", a.LimboBlocks())
	}
	if bytes.Equal(got, a.Snapshot()) {
		t.Fatal("SnapshotReleased ignored limbo")
	}
	if err := a.ReleaseLimbo(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a.Snapshot()) {
		t.Fatal("SnapshotReleased differs from the snapshot after ReleaseLimbo")
	}
}

// TestReleaseLimboFreesInAddressOrder: two allocators park the same runs
// in opposite orders and end with equal free lists. Buddies merge the
// same way whatever order their frees come in, so the order shows only
// in what a release has freed when it stops at a bad run: here a run
// parked though it is already free, between the others. Released in
// address order, both allocators free exactly the runs below it.
func TestReleaseLimboFreesInAddressOrder(t *testing.T) {
	build := func(reverse bool) *Allocator {
		a := New(0, 1024)
		for i := 0; i < 64; i++ {
			if addr, err := a.Alloc(1); err != nil || addr != uint64(i) {
				t.Fatalf("alloc %d: %d, %v", i, addr, err)
			}
		}
		if err := a.Free(40, 1); err != nil {
			t.Fatal(err)
		}
		a.SetDeferredFrees(true)
		for i := 0; i < 64; i++ {
			addr := uint64(i)
			if reverse {
				addr = 63 - addr
			}
			if err := a.Free(addr, 1); err != nil { // 40 parks a second free
				t.Fatal(err)
			}
		}
		if err := a.ReleaseLimbo(); !errors.Is(err, ErrDoubleFree) {
			t.Fatalf("release over a run already free: %v", err)
		}
		return a
	}
	a, b := build(false), build(true)
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatalf("free lists differ: %d and %d blocks free", a.FreeBlocks(), b.FreeBlocks())
	}
	if got := a.FreeBlocks(); got != 1024-64+41 {
		t.Fatalf("%d blocks free, want the runs below the bad one freed (%d)", got, 1024-64+41)
	}
}

// allocAt, isFree and fromUsed are AllocSectorsAt, IsFreeSectors and
// FromUsedSectors for runs of whole blocks.
func allocAt(a *Allocator, addr, n uint64) error {
	return a.AllocSectorsAt(addr*SectorsPerBlock, n*SectorsPerBlock)
}

func isFree(a *Allocator, addr, n uint64) bool {
	return a.IsFreeSectors(addr*SectorsPerBlock, n*SectorsPerBlock)
}

func fromUsed(base, size uint64, used [][2]uint64) (*Allocator, error) {
	sectors := make([][2]uint64, len(used))
	for i, r := range used {
		sectors[i] = [2]uint64{r[0] * SectorsPerBlock, r[1] * SectorsPerBlock}
	}
	return FromUsedSectors(base, size, sectors)
}
