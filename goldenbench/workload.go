package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// workloads are the sealed golden scenarios the benchmark runs, by the name
// of their spec under scenarios/, each with the number of realizations a
// run draws. README.md says why each workload was chosen.
var workloads = []struct {
	name string
	// realizations is how many seeds one run cycles through. Where one
	// realization's figures swing with its seed, as loadaware-768's
	// completion times do, a run measures several and reports medians
	// over them; learned-512 is too long for more than one.
	realizations int
}{
	{"learned-512", 1},
	{"loadaware-768", 4},
	{"soak-churn", 8},
}

// realizationSeed is the spec seed of realization k of run seed n: n
// itself for k = 0, else a splitmix64 hash of both, so that neighbouring
// run seeds draw unrelated realizations. Hashes are reduced below 2³¹−1
// because math/rand folds every seed modulo that: seeds a multiple of it
// apart are the same realization.
func realizationSeed(n int64, k int) int64 {
	if k == 0 {
		return n
	}
	x := uint64(n)*0x9E3779B97F4A7C15 + uint64(k)
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x%(1<<31-2)) + 1
}

// input is one workload prepared for a run seed: the specs the runs execute
// and what their results are checked against.
type input struct {
	name string
	// data is the sealed spec document; every timed set-up parses it anew.
	data []byte
	// golden is the sealed result document.
	golden []byte
	// moreFlows marks the flow IDs carried by MORE (coded traffic).
	moreFlows []bool
	// reals are the run's realizations; the first runs at the run seed.
	reals []realization
}

// realization is the workload's spec at one seed.
type realization struct {
	spec *scenario.Spec
	// sealed is true at the spec's own seed, where each result must
	// reproduce the golden document byte for byte.
	sealed bool
}

// loadInput reads a workload's spec and golden result from root and makes
// count realizations of it for the run seed. At the sealed seed the spec
// is used as written. At any other seed the seed drives the simulator, the
// payload bytes and the protocols' random draws, while the workload's
// structure stays that of the sealed run: the topology, the auto-drawn flow
// endpoints and the churn draw keep the sealed seed. A workload is its mesh
// and traffic matrix; a different random mesh is a different workload
// (pinned pairs such as learned-512's 77→15 exist only on the sealed one).
func loadInput(root, name string, seed int64, count int) (*input, error) {
	data, err := os.ReadFile(filepath.Join(root, "scenarios", name+".json"))
	if err != nil {
		return nil, err
	}
	golden, err := os.ReadFile(filepath.Join(root, "scenarios", "golden", name+".json"))
	if err != nil {
		return nil, err
	}
	in := &input{name: name, data: data, golden: golden}
	for k := 0; k < count; k++ {
		spec, err := scenario.Parse(data)
		if err != nil {
			return nil, err
		}
		rs := realizationSeed(seed, k)
		r := realization{spec: spec, sealed: rs == spec.Seed}
		if !r.sealed {
			if err := pinStructure(spec); err != nil {
				return nil, err
			}
			spec.Seed = rs
		}
		in.reals = append(in.reals, r)
	}
	in.moreFlows = make([]bool, len(in.reals[0].spec.Flows)+1)
	for i, f := range in.reals[0].spec.Flows {
		in.moreFlows[i+1] = f.Protocol == "more"
	}
	return in, nil
}

// pinStructure fixes the spec's seed-drawn structure to its sealed seed, so
// that a later change of spec.Seed leaves it alone. Auto-drawn pairs are
// resolved exactly as scenario.Run resolves them. A churn block's victims
// exclude flow endpoints, so the pairs are pinned only after the churn
// draw has its own seed.
func pinStructure(spec *scenario.Spec) error {
	if spec.Topology.Seed == 0 {
		spec.Topology.Seed = spec.Seed
	}
	if spec.Churn != nil && spec.Churn.Seed == 0 {
		spec.Churn.Seed = spec.Seed
	}
	nAuto := 0
	for _, f := range spec.Flows {
		if f.AutoPair {
			nAuto++
		}
	}
	if nAuto == 0 {
		return nil
	}
	if spec.Churn != nil {
		return fmt.Errorf("%s: pinning auto pairs would move the churn draw", spec.Name)
	}
	topo, err := spec.Topology.Build(spec.Seed)
	if err != nil {
		return err
	}
	pairs := experiments.RandomPairs(topo, nAuto, spec.Seed)
	if len(pairs) < nAuto {
		return fmt.Errorf("%s: only %d of %d auto pairs reachable", spec.Name, len(pairs), nAuto)
	}
	for i := range spec.Flows {
		f := &spec.Flows[i]
		if f.AutoPair {
			f.AutoPair = false
			f.Src, f.Dst = int(pairs[0].Src), int(pairs[0].Dst)
			pairs = pairs[1:]
		}
	}
	return nil
}

// check verifies a result of realization k and returns its canonical
// encoding with any telemetry block removed, which two runs of one seed
// must share. The result passes scenario.ValidateResult and every
// delivered payload was verified; at the sealed seed the encoding must
// equal the golden document and every flow must be done.
func (in *input) check(k int, res *scenario.Result) ([]byte, error) {
	if res.Telemetry != nil {
		stripped := *res
		stripped.Telemetry = nil
		d, err := stripped.ComputeDigest()
		if err != nil {
			return nil, err
		}
		stripped.Digest = d
		res = &stripped
	}
	enc, err := res.Encode()
	if err != nil {
		return nil, err
	}
	if _, err := scenario.ValidateResult(enc); err != nil {
		return nil, err
	}
	for _, f := range res.Flows {
		if f.Result.PacketsDelivered > 0 && !f.Result.Verified {
			return nil, fmt.Errorf("%s: flow %s delivered unverified payload", in.name, f.Name)
		}
	}
	if in.reals[k].sealed {
		if !res.Done() {
			return nil, fmt.Errorf("%s: a flow missed its schedule at the sealed seed", in.name)
		}
		if !bytes.Equal(enc, in.golden) {
			return nil, fmt.Errorf("%s: digest %s differs from the sealed golden", in.name, res.Digest)
		}
	}
	return enc, nil
}
