package experiments

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/linkstate"
	"repro/internal/sim"
)

// TestNewControlPlaneLinearInNodes guards set-up cost on learned state:
// NewControlPlane builds one agent, view and cost model per node, so it
// must allocate a constant number of small objects per node. Sizing any
// per-origin table at construction would make it O(n²) bytes, which is
// paid before the first event at every node count. Both figures are
// allocation counts, not timings, so host noise cannot move them.
func TestNewControlPlaneLinearInNodes(t *testing.T) {
	opts := DefaultOptions()
	opts.State = StateLearned
	lcfg := linkstate.DefaultConfig()
	lcfg.TriggerDelta = 0.2
	lcfg.ScopeRings = []int{1, 3}
	lcfg.SummaryInterval = 80 * sim.Second
	lcfg.Piggyback = true
	opts.LinkState = lcfg
	opts.LoadPenalty = 2 // the cost plane adds a per-node cost model

	var cp *ControlPlane
	perNode := func(n int) (allocs, bytes float64) {
		topo := graph.New(n)
		build := func() { cp = NewControlPlane(topo, opts) }
		allocs = testing.AllocsPerRun(5, build)

		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 5
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / runs
		return allocs / float64(n), bytes / float64(n)
	}
	smallAllocs, smallBytes := perNode(128)
	largeAllocs, largeBytes := perNode(1024)
	if largeAllocs > smallAllocs+0.05 {
		t.Errorf("allocations per node grow with n: %.2f at 128 nodes, %.2f at 1024", smallAllocs, largeAllocs)
	}
	t.Logf("per node: %.2f allocs, %.0f B at 128; %.2f allocs, %.0f B at 1024", smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeBytes > 1.5*smallBytes {
		t.Errorf("bytes per node grow with n: %.0f at 128 nodes, %.0f at 1024", smallBytes, largeBytes)
	}
	runtime.KeepAlive(cp)
}
