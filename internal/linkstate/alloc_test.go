package linkstate

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
)

// allocBytes reports the heap bytes one call of f allocates, averaged over
// runs after one warm-up call. Like testing.AllocsPerRun it pins GOMAXPROCS
// to 1 while measuring, so the count is deterministic rather than timed.
func allocBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestNewAgentCostIndependentOfN: constructing an agent must not size
// anything by the network. The per-origin database is filled during the
// run, so its cost belongs to the run; allocating it in NewAgent would make
// building n agents O(n²) before the first event.
func TestNewAgentCostIndependentOfN(t *testing.T) {
	cfg := DefaultConfig()
	var sink *Agent
	small := func() { sink = NewAgent(cfg, 64) }
	large := func() { sink = NewAgent(cfg, 4096) }
	if a, b := testing.AllocsPerRun(50, small), testing.AllocsPerRun(50, large); a != b {
		t.Errorf("NewAgent allocates %.0f objects at n=64 but %.0f at n=4096", a, b)
	}
	if a, b := allocBytes(50, small), allocBytes(50, large); a != b {
		t.Errorf("NewAgent allocates %d bytes at n=64 but %d at n=4096", a, b)
	}
	_ = sink
}

// TestDuplicateAcceptAllocatesNothing: most LSAs an agent receives are
// duplicates, so rejecting one must be a pure lookup.
func TestDuplicateAcceptAllocatesNothing(t *testing.T) {
	a := mkAgent(64)
	lsa := &packet.LSA{Origin: 17, Seq: 3, Neighbors: []graph.NodeID{1, 2}, Probs: []uint8{200, 100}}
	if !a.accept(lsa) {
		t.Fatal("first copy rejected")
	}
	dup := *lsa
	allocs := testing.AllocsPerRun(100, func() {
		if a.accept(&dup) {
			t.Fatal("duplicate accepted")
		}
	})
	if allocs != 0 {
		t.Fatalf("duplicate accept allocates %.1f objects, want 0", allocs)
	}
}
