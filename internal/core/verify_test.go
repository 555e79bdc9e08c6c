package core

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestSinkFlagsWrongBytes: the destination checks every decoded native
// against the file it expects, so a transfer of other bytes of the same
// shape completes but does not verify.
func TestSinkFlagsWrongBytes(t *testing.T) {
	topo := graph.New(2)
	topo.SetLink(0, 1, 0.8)
	cfg := smallCfg(16)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, cfg.Plan.ETX)
	nodes := []*Node{NewNode(cfg, oracle), NewNode(cfg, oracle)}
	s.Attach(0, nodes[0])
	s.Attach(1, nodes[1])
	done := false
	nodes[1].ExpectFlow(1, flow.NewFile(20*1500+100, 1500, 43), nil)
	if err := nodes[0].StartFlow(1, 1, flow.NewFile(20*1500+100, 1500, 42), func(flow.Result) { done = true }); err != nil {
		t.Fatal(err)
	}
	s.RunWhile(60*sim.Second, func() bool { return !done })
	if res := nodes[1].Result(1); !res.Completed || res.Verified {
		t.Fatalf("want a completed, unverified transfer: %v verified=%v", res, res.Verified)
	}
}
