package srcr

import (
	"runtime"
	"testing"

	"repro/internal/flow"
	"repro/internal/sim"
)

// TestPushStateDoesNotHoldTheFile: a push source generates each payload
// when it sends it and the sink verifies against the regenerated bytes, so
// neither holds the file. Their set-up state may grow with the packet
// count (the sink's per-sequence delivery bitmap) but by far less than a
// payload: under 64 B per packet between 1 000 and 40 000 packets.
func TestPushStateDoesNotHoldTheFile(t *testing.T) {
	setup := func(pkts int) uint64 {
		_, nodes := pushChain(t, 3)
		tr := flow.Traffic{Model: flow.PushCBR, RatePPS: 100, Packets: pkts}
		file := flow.NewFile(pkts*1500, 1500, 7)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nodes[2].ExpectFlow(1, file, nil)
		if err := nodes[0].StartPushFlow(1, 2, tr, file, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := setup(1000), setup(40000)
	if per := (float64(large) - float64(small)) / 39000; per >= 64 {
		t.Fatalf("push source + sink state grows %.0f B per packet (%d B at 1 000, %d B at 40 000), want < 64",
			per, small, large)
	}
}

// TestSinkFlagsWrongBytes: the sink checks every delivered datagram
// against the file it expects, so other bytes of the same shape do not
// verify.
func TestSinkFlagsWrongBytes(t *testing.T) {
	s, nodes := pushChain(t, 3)
	tr := flow.Traffic{Model: flow.PushCBR, RatePPS: 100, Packets: 20}
	nodes[2].ExpectFlow(1, flow.NewFile(20*256, 256, 8), nil)
	if err := nodes[0].StartPushFlow(1, 2, tr, flow.NewFile(20*256, 256, 7), nil); err != nil {
		t.Fatal(err)
	}
	s.Run(10 * sim.Second)
	if res := nodes[2].Result(1); res.PacketsDelivered == 0 || res.Verified {
		t.Fatalf("want delivered, unverified datagrams: %d delivered, verified=%v", res.PacketsDelivered, res.Verified)
	}
}
