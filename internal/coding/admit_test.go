package coding

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf256"
)

// rowBuffer is the row-at-a-time form of Algorithm 2 that Buffer.Admit
// replaced: reduce the packet's vector and payload against each stored row
// in turn, then scale the survivor by its inverse pivot. It is kept only as
// the oracle the fused admission is checked against.
type rowBuffer struct {
	k    int
	rows []*Packet
	rank int
}

func newRowBuffer(k int) *rowBuffer { return &rowBuffer{k: k, rows: make([]*Packet, k)} }

// add consumes p (the oracle works in place, as the old Buffer.Add did).
func (b *rowBuffer) add(p *Packet) bool {
	for i := 0; i < b.k; i++ {
		c := p.Vector[i]
		if c == 0 {
			continue
		}
		row := b.rows[i]
		if row == nil {
			inv := gf256.Inv(c)
			gf256.ScaleSlice(p.Vector, inv)
			gf256.ScaleSlice(p.Payload, inv)
			b.rows[i] = p
			b.rank++
			return true
		}
		gf256.MulAddSlice(p.Vector[i:], row.Vector[i:], c)
		gf256.MulAddSlice(p.Payload, row.Payload, c)
	}
	return false
}

// receptionSequence draws a forwarder's reception stream for one batch:
// fresh source packets, linear combinations of earlier receptions (not
// innovative once their span is in), exact repeats, scaled repeats and the
// occasional all-zero vector — every path through the elimination.
func receptionSequence(rng *rand.Rand, k, size, n int) []*Packet {
	src, _ := NewSource(randomNatives(rng, k, size), rng)
	var seq []*Packet
	for len(seq) < n {
		var p *Packet
		switch r := rng.Intn(10); {
		case r < 4 || len(seq) == 0:
			p = src.Next()
		case r < 6:
			p = &Packet{Vector: make([]byte, k), Payload: make([]byte, size)}
			for j := 0; j < 1+rng.Intn(4); j++ {
				q := seq[rng.Intn(len(seq))]
				c := byte(rng.Intn(256))
				gf256.MulAddSlice(p.Vector, q.Vector, c)
				gf256.MulAddSlice(p.Payload, q.Payload, c)
			}
		case r < 8:
			p = seq[rng.Intn(len(seq))].Clone()
		case r < 9:
			p = seq[rng.Intn(len(seq))].Clone()
			c := byte(1 + rng.Intn(255))
			gf256.ScaleSlice(p.Vector, c)
			gf256.ScaleSlice(p.Payload, c)
		default:
			p = &Packet{Vector: make([]byte, k), Payload: make([]byte, size)}
			rng.Read(p.Payload)
		}
		seq = append(seq, p)
	}
	return seq
}

// TestAdmitMatchesRowAtATimeOracle is the differential test of the fused
// admission: over random reception sequences, on every kernel arm this CPU
// supports, Admit (shared, read-only input) and Add (owned input) must
// agree with the row-at-a-time oracle on every verdict and store rows
// byte-identical to it, vector and payload.
func TestAdmitMatchesRowAtATimeOracle(t *testing.T) {
	prev := gf256.ActiveKernel()
	defer gf256.SetKernel(prev)
	for _, arm := range gf256.AvailableKernels() {
		if err := gf256.SetKernel(arm); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(14))
		for trial := 0; trial < 40; trial++ {
			k := 1 + rng.Intn(40)
			size := 1 + rng.Intn(200)
			if trial%4 == 0 {
				size = 1500
			}
			seq := receptionSequence(rng, k, size, 3*k)
			shared := NewBuffer(k, size)
			shared.UsePool(NewPool(k, size))
			owned := NewBuffer(k, size)
			oracle := newRowBuffer(k)
			for n, p := range seq {
				before := p.Clone()
				got := shared.Admit(p)
				if !bytes.Equal(p.Vector, before.Vector) || !bytes.Equal(p.Payload, before.Payload) {
					t.Fatalf("%s k=%d rx %d: Admit wrote to the received packet", arm, k, n)
				}
				gotOwned := owned.Add(p.Clone())
				want := oracle.add(p.Clone())
				if got != want || gotOwned != want {
					t.Fatalf("%s k=%d rx %d: Admit=%v Add=%v, oracle=%v", arm, k, n, got, gotOwned, want)
				}
				if shared.Rank() != oracle.rank || owned.Rank() != oracle.rank {
					t.Fatalf("%s k=%d rx %d: ranks %d/%d, oracle %d", arm, k, n, shared.Rank(), owned.Rank(), oracle.rank)
				}
				for i, w := range oracle.rows {
					for _, b := range []*Buffer{shared, owned} {
						g := b.rows[i]
						if (g == nil) != (w == nil) {
							t.Fatalf("%s k=%d rx %d: slot %d occupancy differs", arm, k, n, i)
						}
						if w != nil && (!bytes.Equal(g.Vector, w.Vector) || !bytes.Equal(g.Payload, w.Payload)) {
							t.Fatalf("%s k=%d rx %d: row %d differs from the oracle", arm, k, n, i)
						}
					}
				}
			}
		}
	}
}

// TestAdmitNonInnovativeTouchesNothing: a reception the elimination
// rejects costs no allocation, takes nothing from the pool, and leaves the
// received packet and every stored row byte-for-byte as they were.
func TestAdmitNonInnovativeTouchesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k, size = 32, 1500
	src, _ := NewSource(randomNatives(rng, k, size), rng)
	pool := NewPool(k, size)
	buf := NewBuffer(k, size)
	buf.UsePool(pool)
	for !buf.Full() {
		buf.Admit(src.Next())
	}
	p := src.Next() // in the span of a full buffer: never innovative
	snap := p.Clone()
	rows := make([]*Packet, k)
	for i, r := range buf.rows {
		rows[i] = r.Clone()
	}
	free := len(pool.free)
	allocs := testing.AllocsPerRun(100, func() {
		if buf.Admit(p) {
			t.Fatal("a packet in the span of a full buffer was admitted")
		}
	})
	if allocs != 0 {
		t.Errorf("non-innovative Admit allocates %.1f objects, want 0", allocs)
	}
	if len(pool.free) != free {
		t.Errorf("non-innovative Admit moved the pool from %d to %d free packets", free, len(pool.free))
	}
	if !bytes.Equal(p.Vector, snap.Vector) || !bytes.Equal(p.Payload, snap.Payload) {
		t.Error("non-innovative Admit modified the received packet")
	}
	for i, r := range buf.rows {
		if !bytes.Equal(r.Vector, rows[i].Vector) || !bytes.Equal(r.Payload, rows[i].Payload) {
			t.Fatalf("non-innovative Admit modified stored row %d", i)
		}
	}
}
