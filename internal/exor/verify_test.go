package exor

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

// TestSinkFlagsWrongBytes: the destination checks every stored packet
// against the file it expects, so a transfer of other bytes of the same
// shape completes but does not verify.
func TestSinkFlagsWrongBytes(t *testing.T) {
	topo := graph.New(2)
	topo.SetLink(0, 1, 0.8)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	nodes := []*Node{NewNode(smallCfg(16), oracle), NewNode(smallCfg(16), oracle)}
	s.Attach(0, nodes[0])
	s.Attach(1, nodes[1])
	done := false
	nodes[1].ExpectFlow(1, flow.NewFile(20*1500+100, 1500, 2), nil)
	if err := nodes[0].StartFlow(1, 1, flow.NewFile(20*1500+100, 1500, 1), func(flow.Result) { done = true }); err != nil {
		t.Fatal(err)
	}
	s.RunWhile(120*sim.Second, func() bool { return !done })
	if res := nodes[1].Result(1); !res.Completed || res.Verified {
		t.Fatalf("want a completed, unverified transfer: %v verified=%v", res, res.Verified)
	}
}
