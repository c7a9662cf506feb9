package pager

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/redo"
)

// TestWriteDataStagesItsSums: one data write stages one redo.KindWrote
// record, naming the first block it wrote and holding the sum of each
// block it wrote, in order — here three, the first and last in part.
func TestWriteDataStagesItsSums(t *testing.T) {
	const bs = 4096
	dev := blockdev.NewMem(16, bs)
	p := New(dev, 8, false)
	op := p.NewOp(nil)
	data := bytes.Repeat([]byte("hfad"), bs/2) // two blocks' worth
	at := uint64(5*bs + 100)
	if err := p.WriteData(op, at, 0, data); err != nil {
		t.Fatal(err)
	}
	recs := op.Records()
	if len(recs) != 1 || recs[0].Kind != redo.KindWrote || recs[0].Page != 5 {
		t.Fatalf("records %+v, want one KindWrote record for block 5", recs)
	}
	var want []byte
	raw := make([]byte, bs)
	for b := uint64(5); b <= 7; b++ {
		if err := dev.ReadBlock(b, raw); err != nil {
			t.Fatal(err)
		}
		want = binary.LittleEndian.AppendUint32(want, blockdev.Sum(raw))
	}
	if !bytes.Equal(recs[0].Data, want) {
		t.Fatalf("sums %x, want %x (the three blocks written)", recs[0].Data, want)
	}
	got := make([]byte, len(data))
	if err := p.ReadData(at, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

// TestWriteDataReadsBackOnlyLiveBlocks: a block the write covers only in
// part is read from the device first exactly when it holds live bytes
// outside the write — bytes before the write in its block, or bytes up
// to live after it — and those bytes survive; otherwise the block is
// written zero-padded without a read.
func TestWriteDataReadsBackOnlyLiveBlocks(t *testing.T) {
	const bs = 4096
	cases := []struct {
		name     string
		off, n   int  // the write, within block 3
		live     int  // live bytes of block 3 end here (0: none)
		readBack bool // the block is read first, and keeps what the write leaves
	}{
		{"fresh run", 0, 100, 0, false},
		{"whole block", 0, bs, 2 * bs, false},
		{"live after the write", 0, 100, 300, true},
		{"live ends at the write", 0, 100, 100, false},
		{"bytes before the write", 200, 100, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := blockdev.NewMem(8, bs)
			old := bytes.Repeat([]byte{0xee}, bs)
			if err := mem.WriteBlock(3, old); err != nil {
				t.Fatal(err)
			}
			sim := blockdev.NewSim(mem, nil)
			p := New(sim, 8, false)
			data := bytes.Repeat([]byte{7}, tc.n)
			base := uint64(3 * bs)
			live := uint64(0)
			if tc.live > 0 {
				live = base + uint64(tc.live)
			}
			if err := p.WriteData(p.NewOp(nil), base+uint64(tc.off), live, data); err != nil {
				t.Fatal(err)
			}
			if r := sim.Stats().Reads; (r == 1) != tc.readBack || r > 1 {
				t.Fatalf("%d device reads, want a read back: %v", r, tc.readBack)
			}
			got := make([]byte, bs)
			if err := mem.ReadBlock(3, got); err != nil {
				t.Fatal(err)
			}
			for i, c := range got {
				var want byte
				switch {
				case i >= tc.off && i < tc.off+tc.n:
					want = 7
				case tc.readBack:
					want = 0xee
				}
				if c != want {
					t.Fatalf("byte %d holds %#x, want %#x", i, c, want)
				}
			}
		})
	}
}

// TestWriteDataNilOpStagesNothing: an unlogged write (a structure used
// outside a volume) lands its bytes and stages no record — it does not
// even draw an LSN.
func TestWriteDataNilOpStagesNothing(t *testing.T) {
	const bs = 4096
	dev := blockdev.NewMem(8, bs)
	p := New(dev, 8, false)
	lsn := p.CurrentLSN()
	data := bytes.Repeat([]byte{9}, bs+10)
	if err := p.WriteData(nil, 2*bs, 0, data); err != nil {
		t.Fatal(err)
	}
	if p.CurrentLSN() != lsn {
		t.Fatalf("LSN moved from %d to %d", lsn, p.CurrentLSN())
	}
	got := make([]byte, len(data))
	if err := p.ReadData(2*bs, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}
