package linkstate

import (
	"math"
	"testing"

	"repro/internal/packet"
)

func TestSerialNewer(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{1, 0, true},
		{0, 1, false},
		{5, 5, false},
		{math.MaxUint32, math.MaxUint32 - 1, true},
		{0, math.MaxUint32, true},          // the wrap boundary
		{math.MaxUint32, 0, false},         // and its mirror
		{100, math.MaxUint32 - 100, true},  // shortly after wrap
		{math.MaxUint32 - 100, 100, false}, // stale pre-wrap replay
		{1 << 31, 0, false},                // exactly half the space: ambiguous, reject
		{(1 << 31) - 1, 0, true},           // just under half: newer
	}
	for _, c := range cases {
		if got := serialNewer(c.a, c.b); got != c.want {
			t.Errorf("serialNewer(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAcceptSurvivesSequenceWraparound(t *testing.T) {
	// An origin whose uint32 sequence wraps (crash loop, or a soak long
	// enough to pass 2³²) must keep getting its LSAs installed; the old
	// plain <= comparison wedged the origin forever.
	a := NewAgent(DefaultConfig(), 4)
	pre := &packet.LSA{Origin: 1, Seq: math.MaxUint32}
	if !a.accept(pre) {
		t.Fatal("first LSA at MaxUint32 rejected")
	}
	wrapped := &packet.LSA{Origin: 1, Seq: 0}
	if !a.accept(wrapped) {
		t.Fatal("post-wrap LSA (seq 0 after MaxUint32) rejected: origin wedged")
	}
	next := &packet.LSA{Origin: 1, Seq: 1}
	if !a.accept(next) {
		t.Fatal("LSA after the wrap rejected")
	}
	if a.accept(pre) {
		t.Fatal("stale pre-wrap replay accepted")
	}
	if a.accept(&packet.LSA{Origin: 1, Seq: 1}) {
		t.Fatal("duplicate sequence accepted")
	}
	if got := a.latestSeq(1); got != 1 {
		t.Fatalf("latestSeq = %d, want 1", got)
	}
}
