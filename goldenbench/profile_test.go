package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Simulator).Run":          "sim",
		"repro/internal/scenario.RunWith.func3":        "scenario",
		"repro/internal/gf256.mulAddSlice[...]":        "gf256",
		"repro/internal/linkstate.(*Agent).accept":     "linkstate",
		"runtime.mapaccess2_fast32":                    "",
		"container/heap.Pop":                           "",
		"main.(*countSink).Emit":                       "",
		"repro/internalx.F":                            "",
		"repro/internal/telemetry.(*Hub).Emit":         "telemetry",
		"repro/internal/experiments.(*ControlPlane).X": "experiments",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// Each synthetic sample bills to the innermost repository frame on its
// stack, or to runtime.other without one, and every sample is billed once.
func TestAttributeSyntheticStacks(t *testing.T) {
	samples := []sample{
		// A map lookup inside linkstate, called from the event loop.
		{1, 10, []string{"runtime.mapaccess2", "repro/internal/linkstate.(*Agent).accept", "repro/internal/sim.(*Simulator).Run"}},
		// container/heap on behalf of the simulator.
		{2, 20, []string{"container/heap.down", "container/heap.Pop", "repro/internal/sim.(*Simulator).step", "repro/internal/scenario.RunWith"}},
		// Allocation inside coding, reached through core.
		{3, 30, []string{"runtime.mallocgc", "repro/internal/coding.(*Buffer).Add", "repro/internal/core.(*Node).Receive"}},
		// The benchmark's own sink, reached through the hub.
		{4, 40, []string{"main.(*countSink).Emit", "repro/internal/telemetry.(*Hub).Emit", "repro/internal/sim.(*Simulator).startTransmission"}},
		// A GC worker: no repository frame.
		{5, 50, []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		// An empty stack.
		{6, 60, nil},
	}
	var a attribution
	a.add(samples)
	want := map[string]int64{"linkstate": 10, "sim": 20, "coding": 30, "telemetry": 40, otherModule: 110}
	if len(a.ns) != len(want) {
		t.Fatalf("buckets %v, want %v", a.ns, want)
	}
	for m, ns := range want {
		if a.ns[m] != ns {
			t.Errorf("%s: %d ns, want %d", m, a.ns[m], ns)
		}
	}
	if a.samples != 1+2+3+4+5+6 {
		t.Errorf("%d ticks counted, want 21", a.samples)
	}
}

// A real CPU profile of scenario runs decodes, and attribution covers all
// of its CPU time. The runs go on for 0.3 s of this thread's CPU time, not
// wall time, so a busy host cannot starve the profile of ticks.
func TestParseRealProfile(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	in, err := loadInput("..", "paper-testbed", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for c0 := threadCPU(); threadCPU()-c0 < 300*time.Millisecond; {
		if _, err := scenario.Run(in.reals[0].spec); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples in 0.3 s of scenario runs")
	}
	var total, ticks int64
	for _, s := range samples {
		total += s.ns
		ticks += s.count
		if s.count <= 0 || s.ns <= 0 || len(s.stack) == 0 {
			t.Errorf("malformed sample %+v", s)
		}
	}
	var a attribution
	a.add(samples)
	var billed int64
	for _, ns := range a.ns {
		billed += ns
	}
	if billed != total || a.samples != ticks {
		t.Errorf("billed %d ns over %d ticks, profile has %d ns over %d", billed, a.samples, total, ticks)
	}
	if a.ns["sim"] == 0 {
		t.Errorf("no CPU billed to sim: %v", a.ns)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed")
	}
}
