package pager

import (
	"bytes"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/redo"
)

// TestPackCarvesAndCloses: slots come from one block, aligned to their
// size, each logged as its own allocation; the pack reaches the device in
// one write, logged as a built block's sum, and the sectors no slot took
// go back as the largest aligned runs they make.
func TestPackCarvesAndCloses(t *testing.T) {
	dev := blockdev.NewMem(64, 4096)
	sim := blockdev.NewSim(dev, nil)
	p := New(sim, 8, false)
	ba := buddy.New(1, 63)
	s := NewSpace(p, ba)
	op := p.NewOp(nil)
	op.StartPacking()
	unit := 4096 / buddy.SectorsPerBlock
	var secs []uint64
	for _, n := range []int{unit + 1, 10} { // a 2-sector slot, then a 1-sector one
		sec, _, ok, err := s.Slot(op, bytes.Repeat([]byte{byte(n)}, n))
		if err != nil || !ok {
			t.Fatalf("Slot: %v %v", ok, err)
		}
		secs = append(secs, sec)
	}
	if secs[1] != secs[0]+2 || secs[0]%buddy.SectorsPerBlock != 0 {
		t.Fatalf("slots at sectors %v, want the block's first sector and the one two after", secs)
	}
	if _, _, ok, _ := s.Slot(op, make([]byte, 2049)); ok {
		t.Fatal("more than half a block took a slot")
	}
	// While the pack is open, a read of a slot comes from its buffer: the
	// device is not read, and its block holds nothing yet.
	got := make([]byte, 10)
	block := secs[0] / buddy.SectorsPerBlock
	at := secs[1] * uint64(unit)
	if err := p.ReadData(at, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{10}, 10)) {
		t.Fatalf("pending read of the second slot: %v %v", got, err)
	}
	if r := sim.Stats().Reads; r != 0 {
		t.Fatalf("a read of an open pack's slot made %d device reads", r)
	}
	if err := op.ClosePack(); err != nil {
		t.Fatal(err)
	}
	// Once closed, the pack is read from its block.
	clear(got)
	if err := p.ReadData(at, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{10}, 10)) {
		t.Fatalf("read of the second slot after the close: %v %v", got, err)
	}
	if r := sim.Stats().Reads; r != 1 {
		t.Fatalf("a read of a closed pack's slot made %d device reads, want 1", r)
	}
	raw := make([]byte, 4096)
	if err := dev.ReadBlock(block, raw); err != nil {
		t.Fatal(err)
	}
	if raw[0] != byte(unit+1) || raw[2*unit] != 10 || raw[3*unit] != 0 {
		t.Fatal("the pack's bytes did not reach its block")
	}
	var takes, built int
	for _, r := range op.Records() {
		switch r.Kind {
		case redo.KindAlloc:
			takes++
		case redo.KindBuilt:
			built++
		}
	}
	if takes != 2 || built != 1 {
		t.Fatalf("%d allocation records and %d sums, want one per slot and one per pack", takes, built)
	}
	// Sectors 3 and 4–7 went back: 5 stranded sectors, as 1 + 4.
	if st := ba.Stats(); st.Stranded != 5 || st.UsedBlocks != 1 {
		t.Fatalf("%d stranded sectors, %d used blocks after the close; want 5 and 1", st.Stranded, st.UsedBlocks)
	}
	if err := ba.CheckFreeIntegrity(); err != nil {
		t.Fatal(err)
	}
}
