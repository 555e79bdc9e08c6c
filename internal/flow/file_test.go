package flow

import (
	"bytes"
	"testing"
)

// TestFileVerify: Verify accepts exactly packet i's bytes and rejects a
// flipped byte (in the word body and in the sub-word tail), a wrong
// length and an index outside the file, allocating nothing.
func TestFileVerify(t *testing.T) {
	f := NewFile(10*1500+77, 1500, 21)
	n := f.NumPackets()
	for _, i := range []int{0, 3, n - 1} {
		p := f.Packet(i)
		if !f.Verify(i, p) {
			t.Fatalf("packet %d does not verify against itself", i)
		}
		for _, at := range []int{0, len(p) / 2, len(p) - 1} {
			p[at] ^= 0x40
			if f.Verify(i, p) {
				t.Fatalf("packet %d: flipped byte %d verified", i, at)
			}
			p[at] ^= 0x40
		}
		if f.Verify(i, p[:len(p)-1]) || f.Verify(i, append(p[:len(p):len(p)], 0)) {
			t.Fatalf("packet %d: wrong length verified", i)
		}
	}
	if f.Verify(1, f.Packet(0)) {
		t.Fatal("packet 0's bytes verified as packet 1")
	}
	for _, i := range []int{-1, n, n + 5} {
		if f.Verify(i, f.Packet(0)) || f.Verify(i, nil) {
			t.Fatalf("out-of-range index %d verified", i)
		}
	}
	p := f.Packet(4)
	if a := testing.AllocsPerRun(100, func() { f.Verify(4, p) }); a != 0 {
		t.Fatalf("Verify allocates %.1f objects, want 0", a)
	}
	buf := make([]byte, 0, f.PktSize)
	if a := testing.AllocsPerRun(100, func() { buf = f.AppendPacket(buf[:0], 4) }); a != 0 {
		t.Fatalf("AppendPacket into a reused buffer allocates %.1f objects, want 0", a)
	}
}

// TestFileTailIsPrefixOfFullDraw: the short final packet is the leading
// TailSize bytes of what a full-size packet at that index would carry, so
// truncation never redraws the file.
func TestFileTailIsPrefixOfFullDraw(t *testing.T) {
	for _, tail := range []int{1, 7, 8, 9, 100, 1499} {
		short := NewFile(3*1500+tail, 1500, 5)
		full := NewFile(4*1500, 1500, 5)
		got := short.Packet(3)
		if len(got) != tail {
			t.Fatalf("tail %d: packet has %d bytes", tail, len(got))
		}
		if want := full.Packet(3); !bytes.Equal(got, want[:tail]) {
			t.Fatalf("tail %d: not a prefix of the full-size draw", tail)
		}
		for i := 0; i < 3; i++ {
			if !bytes.Equal(short.Packet(i), full.Packet(i)) {
				t.Fatalf("tail %d: packet %d differs between the two files", tail, i)
			}
		}
	}
}
