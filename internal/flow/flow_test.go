package flow

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

func TestFilePayloadsDeterministic(t *testing.T) {
	f := NewFile(10*100, 100, 7)
	a := f.Payloads()
	b := f.Payloads()
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("packet counts %d/%d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("payload %d differs between calls", i)
		}
		if len(a[i]) != 100 {
			t.Fatalf("payload %d has size %d", i, len(a[i]))
		}
	}
	other := NewFile(10*100, 100, 8).Payloads()
	if bytes.Equal(a[0], other[0]) {
		t.Fatal("different seeds produced identical payloads")
	}
}

func TestFileNumPacketsRoundsUp(t *testing.T) {
	if got := NewFile(1501, 1500, 1).NumPackets(); got != 2 {
		t.Fatalf("1501 bytes = %d packets, want 2", got)
	}
	if got := NewFile(1500, 1500, 1).NumPackets(); got != 1 {
		t.Fatalf("1500 bytes = %d packets, want 1", got)
	}
}

func TestResultMetrics(t *testing.T) {
	r := Result{
		Src: 1, Dst: 2,
		PacketsDelivered: 100,
		PacketsTotal:     100,
		Completed:        true,
		Start:            sim.Second,
		End:              3 * sim.Second,
		Transmissions:    250,
		Verified:         true,
	}
	if got := r.Throughput(); got != 50 {
		t.Fatalf("throughput = %v, want 50", got)
	}
	if got := r.TxPerPacket(); got != 2.5 {
		t.Fatalf("tx/pkt = %v", got)
	}
	if r.Duration() != 2*sim.Second {
		t.Fatalf("duration = %v", r.Duration())
	}
	if r.String() == "" {
		t.Fatal("String empty")
	}
	var zero Result
	if zero.Throughput() != 0 || zero.TxPerPacket() != 0 || zero.Duration() != 0 {
		t.Fatal("zero result should report zero metrics")
	}
}

func TestOracle(t *testing.T) {
	topo := graph.New(4)
	topo.SetLink(0, 1, 0.9)
	topo.SetLink(1, 2, 0.9)
	topo.SetLink(2, 3, 0.9)
	o := NewOracle(topo, routing.ETXOptions{Threshold: 0.1, AckAware: false})
	if got := o.NextHop(0, 3); got != 1 {
		t.Fatalf("NextHop(0,3) = %v", got)
	}
	if got := o.NextHop(3, 3); got != -1 {
		t.Fatalf("NextHop to self = %v", got)
	}
	path := o.Path(0, 3)
	if len(path) != 4 || path[0] != 0 || path[3] != 3 {
		t.Fatalf("path = %v", path)
	}
	// Table caching: same pointer on second call.
	if o.Table(3) != o.Table(3) {
		t.Fatal("tables not cached")
	}
}

func TestFileUnalignedTailTruncated(t *testing.T) {
	// 1000 B in 300 B packets: 4 packets, final one carries 100 B. The old
	// behaviour padded it to 300 B, so byte accounting overcounted and
	// delivered-content verification compared against padding.
	f := NewFile(1000, 300, 7)
	if got := f.NumPackets(); got != 4 {
		t.Fatalf("NumPackets = %d, want 4", got)
	}
	if got := f.TailSize(); got != 100 {
		t.Fatalf("TailSize = %d, want 100", got)
	}
	ps := f.Payloads()
	total := 0
	for _, p := range ps {
		total += len(p)
	}
	if total != 1000 {
		t.Fatalf("payloads carry %d bytes, want exactly 1000", total)
	}
	if len(ps[3]) != 100 {
		t.Fatalf("tail payload has %d bytes, want 100", len(ps[3]))
	}
	// Aligned files still produce full-size tails.
	if a := NewFile(900, 300, 7); len(a.Payloads()[2]) != 300 || a.TailSize() != 300 {
		t.Fatal("aligned file must not be truncated")
	}
	// Truncation is a prefix, not a different draw: first packets unchanged.
	long := NewFile(1200, 300, 7).Payloads()
	for i := 0; i < 3; i++ {
		if !bytes.Equal(long[i], ps[i]) {
			t.Fatalf("packet %d differs between aligned and unaligned draws", i)
		}
	}
}
