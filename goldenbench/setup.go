package main

import (
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// setupTimes is one timed pass over the construction calls scenario.Run
// makes before its first event, each timed on its own in CPU time (see
// threadCPU).
type setupTimes struct {
	parse, build, simNew, controlPlane, newFile time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.parse + t.build + t.simNew + t.controlPlane + t.newFile
}

// timeSetup parses the sealed spec document, then builds the topology, the
// simulator, the control plane and every flow's file for the run spec, in
// the order scenario.Run does. Each pass starts from a collected heap.
func timeSetup(in *input) (setupTimes, error) {
	runtime.GC()
	var t setupTimes
	t0 := threadCPU()
	if _, err := scenario.Parse(in.data); err != nil {
		return t, err
	}
	t.parse = threadCPU() - t0

	spec := in.reals[0].spec
	t0 = threadCPU()
	topo, err := spec.Topology.Build(spec.Seed)
	t.build = threadCPU() - t0
	if err != nil {
		return t, err
	}
	opts := spec.Options()
	t0 = threadCPU()
	s := sim.New(topo, opts.SimConfig())
	t.simNew = threadCPU() - t0
	t0 = threadCPU()
	cp := experiments.NewControlPlane(topo, opts)
	t.controlPlane = threadCPU() - t0
	t0 = threadCPU()
	files := make([]flow.File, len(spec.Flows))
	for i, f := range spec.Flows {
		bytes := f.Traffic.Bytes
		if f.Protocol == scenario.ProtoPush {
			bytes = f.Traffic.Packets * spec.PktSize
		}
		files[i] = flow.NewFile(bytes, spec.PktSize, spec.Seed+int64(i))
	}
	t.newFile = threadCPU() - t0
	runtime.KeepAlive(s)
	runtime.KeepAlive(cp)
	runtime.KeepAlive(files)
	return t, nil
}
