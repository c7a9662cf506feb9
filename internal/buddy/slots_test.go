package buddy

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// TestStrandedSectors: a block carved into four slots, three of them
// freed and limbo drained, is one used block with three quarters of it
// stranded; Alloc cannot have those sectors. Freeing the fourth and
// draining again coalesces the block: nothing is used or stranded, and
// Alloc hands the block out.
func TestStrandedSectors(t *testing.T) {
	a := New(10, 1)
	a.SetDeferredFrees(true)
	block, err := a.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	first := block * SectorsPerBlock
	const slot = SectorsPerBlock / 4
	for i := uint64(0); i < 3; i++ {
		if err := a.FreeSectors(first+i*slot, slot); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.ReleaseLimbo(); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.UsedBlocks != 1 || s.StrandedBlocks() != 0.75 || s.FreeBlocks != 0 {
		t.Fatalf("three of four slots freed: %d used, %v stranded, %d free blocks; want 1, 0.75, 0",
			s.UsedBlocks, s.StrandedBlocks(), s.FreeBlocks)
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Alloc took stranded sectors: %v", err)
	}
	if err := a.FreeSectors(first+3*slot, slot); err != nil {
		t.Fatal(err)
	}
	if err := a.ReleaseLimbo(); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.UsedBlocks != 0 || s.Stranded != 0 || s.FreeBlocks != 1 {
		t.Fatalf("every slot freed: %d used, %d stranded sectors, %d free blocks; want 0, 0, 1",
			s.UsedBlocks, s.Stranded, s.FreeBlocks)
	}
	if got, err := a.Alloc(1); err != nil || got != block {
		t.Fatalf("Alloc after the block coalesced: %d, %v", got, err)
	}
}

// slotModel is FuzzSlots's model of the allocator: which owner holds each
// sector of a range of blocks, and which sectors sit in limbo.
type slotModel struct {
	base, size uint64
	owner      map[uint64]int // absolute sector → owner
	runs       map[int][2]uint64
	limbo      map[uint64]bool
	next       int
}

func (m *slotModel) take(first, n uint64) error {
	for s := first; s < first+n; s++ {
		if o, ok := m.owner[s]; ok {
			return fmt.Errorf("sector %d handed out twice (owner %d)", s, o)
		}
		if m.limbo[s] {
			return fmt.Errorf("sector %d handed out from limbo", s)
		}
	}
	m.next++
	for s := first; s < first+n; s++ {
		m.owner[s] = m.next
	}
	m.runs[m.next] = [2]uint64{first, n}
	return nil
}

func (m *slotModel) give(id int, deferred bool) {
	r := m.runs[id]
	delete(m.runs, id)
	for s := r[0]; s < r[0]+r[1]; s++ {
		delete(m.owner, s)
		if deferred {
			m.limbo[s] = true
		}
	}
}

// used lists the owned runs as absolute sector ranges.
func (m *slotModel) used() [][2]uint64 {
	var out [][2]uint64
	for _, r := range m.runs {
		out = append(out, [2]uint64{r[0], r[0] + r[1]})
	}
	return out
}

// FuzzSlots drives an allocator through a byte-coded sequence of block
// allocations, pack carves (a block allocated, cut into slots, and the
// slots no owner takes freed), slot and run frees, limbo drains,
// Snapshot/Restore round trips and FromUsedSectors rebuilds, against a
// model of which owner holds each sector. After every step: no sector is
// owned twice or owned and free, Alloc returned whole aligned blocks, and
// owned, free and limbo sectors add up to the range.
func FuzzSlots(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0x2c, 2, 0, 3, 1, 0xf0, 4, 2, 1, 5})
	f.Add([]byte{6, 1, 0x55, 1, 0xaa, 2, 1, 2, 0, 3, 0, 3, 4, 5})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const base, size = 3, 24
		prog = prog[:min(len(prog), 256)] // a longer program only repeats itself
		a := New(base, size)
		m := &slotModel{base: base, size: size, owner: map[uint64]int{}, runs: map[int][2]uint64{}, limbo: map[uint64]bool{}}
		deferred := false
		arg := func(i *int) byte {
			*i++
			if *i < len(prog) {
				return prog[*i]
			}
			return 0
		}
		pick := func(b byte) (int, bool) {
			if len(m.runs) == 0 {
				return 0, false
			}
			ids := make([]int, 0, len(m.runs))
			for id := range m.runs {
				ids = append(ids, id)
			}
			slices.Sort(ids) // map order is random: pick the k-th smallest id
			return ids[int(b)%len(ids)], true
		}
		for i := 0; i < len(prog); i++ {
			switch prog[i] % 7 {
			case 0: // a run of whole blocks
				n := uint64(arg(&i)%4) + 1
				blk, err := a.Alloc(n)
				if errors.Is(err, ErrNoSpace) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				k := RoundUp(n)
				if (blk-base)%k != 0 {
					t.Fatalf("Alloc(%d) = block %d, not aligned to %d", n, blk, k)
				}
				if err := m.take(blk*SectorsPerBlock, k*SectorsPerBlock); err != nil {
					t.Fatal(err)
				}
			case 1: // a pack: carve a block into slots by the mask's bits
				mask := arg(&i)
				blk, err := a.Alloc(1)
				if errors.Is(err, ErrNoSpace) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				first := blk * SectorsPerBlock
				for s := uint64(0); s < SectorsPerBlock; {
					n := uint64(1) << (mask >> (2 * (s / 2)) & 3 % 3) // 1, 2 or 4 sectors
					for s%n != 0 {
						n /= 2
					}
					if mask&(1<<s) != 0 {
						if err := m.take(first+s, n); err != nil {
							t.Fatal(err)
						}
					} else if err := a.FreeSectors(first+s, n); err != nil {
						t.Fatal(err)
					} else if deferred {
						for x := first + s; x < first+s+n; x++ {
							m.limbo[x] = true
						}
					}
					s += n
				}
			case 2: // free an owned run or slot
				id, ok := pick(arg(&i))
				if !ok {
					continue
				}
				r := m.runs[id]
				if err := a.FreeSectors(r[0], r[1]); err != nil {
					t.Fatalf("free of owned run %v: %v", r, err)
				}
				m.give(id, deferred)
			case 3: // drain limbo
				if err := a.ReleaseLimbo(); err != nil {
					t.Fatal(err)
				}
				m.limbo = map[uint64]bool{}
			case 4: // checkpoint round trip: limbo counted free
				snap, err := a.SnapshotReleased()
				if err != nil {
					t.Fatal(err)
				}
				if a, err = Restore(snap); err != nil {
					t.Fatal(err)
				}
				a.SetDeferredFrees(deferred)
				m.limbo = map[uint64]bool{}
			case 5: // the walk: the allocator is what the owned runs define
				w, err := FromUsedSectors(base, size, m.used())
				if err != nil {
					t.Fatal(err)
				}
				got, err := a.SnapshotReleased()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, w.Snapshot()) {
					t.Fatalf("step %d: the allocator differs from FromUsedSectors over the model's runs", i)
				}
			case 6:
				deferred = !deferred
				a.SetDeferredFrees(deferred)
			}
			if err := a.CheckFreeIntegrity(); err != nil {
				t.Fatal(err)
			}
			for _, r := range m.runs {
				if a.IsFreeSectors(r[0], r[1]) {
					t.Fatalf("owned run %v is free", r)
				}
			}
			free, limbo := a.SectorCounts()
			if free+limbo+uint64(len(m.owner)) != size*SectorsPerBlock || limbo != uint64(len(m.limbo)) {
				t.Fatalf("step %d: %d free + %d limbo (model %d) + %d owned != %d sectors",
					i, free, limbo, len(m.limbo), len(m.owner), size*SectorsPerBlock)
			}
			s := a.Stats()
			if s.FreeBlocks*SectorsPerBlock+s.Stranded != free {
				t.Fatalf("step %d: %d free blocks and %d stranded sectors, %d free sectors", i, s.FreeBlocks, s.Stranded, free)
			}
		}
	})
}
