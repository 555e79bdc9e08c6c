package congest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestRouteRepairRejudgesGranter: the downstream verdict of a grant is
// cached per forwarder list, so a route repair that swaps the list
// mid-batch must re-judge the granter. Here granter 1 sits downstream of
// this relay (node 0) on the original list, so its zero need gates the
// flow; on the repaired list it sits upstream, so the same grant no longer
// gates anything; frames still carrying the original list stay gated.
func TestRouteRepairRejudgesGranter(t *testing.T) {
	frame := func(fwd []core.FwdEntry) *sim.Frame {
		m := &core.DataMsg{Flow: 1, Src: 5, Dst: 9, Batch: 0, K: 4, Forwarders: fwd}
		return &sim.Frame{From: 0, To: graph.Broadcast, Bytes: 100, Payload: m, FlowID: 1}
	}
	// Lists are ordered closest-to-destination first.
	original := []core.FwdEntry{{Node: 1, Credit: 1}, {Node: 0, Credit: 1}}
	repaired := []core.FwdEntry{{Node: 0, Credit: 1}, {Node: 1, Credit: 1}}

	p := &fakeProto{frames: []*sim.Frame{frame(original)}}
	l, _ := newTestLayer(t, Config{Policy: Credit, CreditMinK: -1}, p)
	if l.Pull() == nil {
		t.Fatal("cold start gated")
	}
	l.Receive(&sim.Frame{From: 1, To: graph.Broadcast, Payload: &CreditMsg{Flow: 1, Batch: 0, Needed: 0}})
	stale := frame(original)
	p.frames = append(p.frames, stale)
	if f := l.Pull(); f != nil {
		t.Fatal("a zero-need grant from a downstream granter did not gate the flow")
	}
	fresh := frame(repaired)
	p.frames = append(p.frames, fresh)
	if f := l.Pull(); f != fresh {
		t.Fatalf("after the list swap the granter is upstream, yet the repaired frame was gated (got %v)", f)
	}
	if f := l.Pull(); f != nil {
		t.Fatal("the frame on the original list escaped the gate after the verdict was re-judged")
	}
}
