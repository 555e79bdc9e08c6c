package main

import "testing"

// Realization seeds of nearby run seeds never coincide, and stay in the
// range math/rand keeps distinct.
func TestRealizationSeeds(t *testing.T) {
	seen := map[int64]int64{}
	for n := int64(1); n <= 200; n++ {
		if got := realizationSeed(n, 0); got != n {
			t.Fatalf("realization 0 of %d runs at %d", n, got)
		}
		for k := 1; k < 8; k++ {
			s := realizationSeed(n, k)
			if s < 1 || s >= 1<<31-1 {
				t.Fatalf("realization %d of %d: seed %d out of range", k, n, s)
			}
			if prev, ok := seen[s]; ok {
				t.Fatalf("realization %d of %d repeats seed %d of run seed %d", k, n, s, prev)
			}
			seen[s] = n
		}
	}
}

// At the sealed seed realization 0 is the sealed spec; elsewhere the
// structure keeps its sealed draw and only the seed moves.
func TestLoadInputPinsStructure(t *testing.T) {
	sealed, err := loadInput("..", "loadaware-768", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sealed.reals[0].sealed || sealed.reals[1].sealed {
		t.Fatalf("sealed flags %v %v", sealed.reals[0].sealed, sealed.reals[1].sealed)
	}
	if !sealed.reals[0].spec.Flows[0].AutoPair {
		t.Error("the sealed realization was rewritten")
	}
	golden := loadGolden(t, "loadaware-768")
	for _, r := range sealed.reals[1:] {
		spec := r.spec
		if spec.Topology.Seed != 1 || spec.Seed == 1 {
			t.Errorf("topology seed %d, spec seed %d", spec.Topology.Seed, spec.Seed)
		}
		for i, f := range spec.Flows {
			g := golden.Flows[i].Result
			if f.AutoPair || f.Src != int(g.Src) || f.Dst != int(g.Dst) {
				t.Errorf("flow %s runs %d→%d, sealed %d→%d", f.Name, f.Src, f.Dst, g.Src, g.Dst)
			}
		}
	}
}
