package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// runStats is the host side of one untraced scenario run.
type runStats struct {
	wall       time.Duration
	cpu        time.Duration // CPU time of the thread running the simulation
	mallocs    uint64        // heap allocations during the run
	allocBytes uint64        // heap bytes allocated during the run
	peakHeap   uint64        // largest sampled heap-object bytes
	gcCycles   uint64        // collections the run triggered
	gcCPU      float64
}

// gcCPUMetric is the runtime's estimate of CPU seconds spent in the
// garbage collector.
const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

// runUntraced runs the spec once with tracing off, from a collected heap.
// gcCPU also covers one forced collection after the run, which publishes
// the runtime's GC CPU counters.
func runUntraced(spec *scenario.Spec) (*scenario.Result, runStats, error) {
	gc := []metrics.Sample{{Name: gcCPUMetric}}
	runtime.GC()
	metrics.Read(gc)
	gc0 := gc[0].Value.Float64()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := startPeakSampler()
	c0, t0 := threadCPU(), time.Now()
	res, err := scenario.Run(spec)
	st := runStats{wall: time.Since(t0), cpu: threadCPU() - c0, peakHeap: peak.stop()}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	metrics.Read(gc)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.gcCycles = uint64(m1.NumGC - m0.NumGC)
	st.gcCPU = gc[0].Value.Float64() - gc0
	return res, st, err
}

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall lacks. Unlike getrusage, whose per-thread user/system split is
// sampled at clock ticks, this clock counts every nanosecond.
const clockThreadCPU = 3

// threadCPU is the CPU time of the calling OS thread.
// main locks its goroutine to one thread, and the simulation runs on that
// goroutine alone, so a difference of two readings is the simulation's CPU
// time: its wall time on an idle host, without the time a shared host
// steals, and without the garbage collector's background workers, which
// run beside it on other threads.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// tracedRun is one scenario run with a telemetry hub and a CPU profile.
type tracedRun struct {
	cpu     time.Duration // as runStats.cpu
	counts  counts
	samples []sample
}

// runTraced runs the spec once under a standard telemetry hub carrying the
// benchmark's counting sink, with the CPU profiler on for the run alone.
func runTraced(spec *scenario.Spec, moreFlows []bool) (*scenario.Result, tracedRun, error) {
	runtime.GC()
	sink := &countSink{moreFlows: moreFlows}
	hub := telemetry.NewHub(telemetry.Config{})
	hub.AddSink(sink)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, tracedRun{}, fmt.Errorf("cpu profile: %w", err)
	}
	c0 := threadCPU()
	res, err := scenario.RunWith(spec, hub)
	cpu := threadCPU() - c0
	pprof.StopCPUProfile()
	if err != nil {
		return nil, tracedRun{}, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, tracedRun{}, err
	}
	return res, tracedRun{cpu: cpu, counts: sink.counts(), samples: samples}, nil
}

// peakSampler polls the heap size while a run executes.
type peakSampler struct {
	halt chan struct{}
	done chan struct{}
	peak uint64
}

// heapObjectsMetric is the heap memory occupied by objects, live or not yet
// swept: what the heap holds at that instant.
const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// startPeakSampler polls every 2 ms on its own goroutine until stop.
// Reading this metric neither allocates nor stops the world.
func startPeakSampler() *peakSampler {
	p := &peakSampler{halt: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak {
				p.peak = v
			}
			select {
			case <-p.halt:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the sampling, waits for the goroutine and returns the peak.
func (p *peakSampler) stop() uint64 {
	close(p.halt)
	<-p.done
	return p.peak
}
