// Command goldenbench is the repository's end-to-end benchmark. It runs a
// sealed golden scenario through the public scenario.Parse → scenario.Run
// API for a fixed time, checks every result, and prints its metrics as one
// JSON object on the last line of standard output. With --trace 1 it runs
// the scenario under a telemetry hub and the CPU profiler as well and
// reports per-layer metrics instead. See README.md for the metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash goldenbench/run.sh --workload soak-churn --seed 5 --seconds 12 --trace 1
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/gf256"
	"repro/internal/scenario"
)

// setupReps is how many timed set-up passes a run makes; set-up time is
// their median.
const setupReps = 15

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// Every scenario run and set-up pass happens on this goroutine, held to
	// one thread so that threadCPU times it.
	runtime.LockOSThread()
	fs := flag.NewFlagSet("goldenbench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 0, "run seed; the sealed seed compares every result with its golden")
	secs := fs.Int("seconds", 12, "measurement time; every realization runs, and one twice")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := slices.IndexFunc(names, func(n string) bool { return n == *name })
	if w < 0 || *secs < 1 || *trace < 0 || *trace > 1 {
		fs.Usage()
		return 2
	}
	in, err := loadInput(".", *name, *seed, workloads[w].realizations)
	if err != nil {
		fmt.Fprintln(os.Stderr, "goldenbench:", err)
		return 1
	}
	b := &bench{
		in:       in,
		budget:   time.Duration(*secs) * time.Second,
		first:    make([]*scenario.Result, len(in.reals)),
		firstEnc: make([][]byte, len(in.reals)),
	}
	setup, err := b.setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "goldenbench:", err)
		return 1
	}
	var values map[string]float64
	defs := endToEnd
	if *trace == 1 {
		values, defs = b.traced(setup), perLayer
	} else {
		values = b.untraced(setup)
	}

	env := map[string]any{
		"workload":         in.name,
		"seed":             *seed,
		"sealed_seed":      in.reals[0].sealed,
		"realizations":     len(in.reals),
		"go":               runtime.Version(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"nproc":            runtime.NumCPU(),
		"cpu":              cpuModel(),
		"gf256_kernel":     gf256.ActiveKernel(),
		"gf256_kernel_env": os.Getenv("GF256_KERNEL") != "",
		"runs":             b.attempted,
	}
	if *trace == 1 {
		env["profile_samples"] = b.prof.samples
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, report(defs, values)}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		fmt.Fprintln(os.Stderr, "goldenbench:", err)
		return 1
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "goldenbench:", err)
		return 1
	}
	return 0
}

// bench is one benchmark run over one workload and seed.
type bench struct {
	in     *input
	budget time.Duration

	attempted, failed int
	// first[k] is realization k's first good result; every later one must
	// encode the same.
	first    []*scenario.Result
	firstEnc [][]byte

	prof attribution
}

// setup times setupReps passes over the construction calls and returns
// them.
func (b *bench) setup() ([]setupTimes, error) {
	out := make([]setupTimes, setupReps)
	for i := range out {
		t, err := timeSetup(b.in)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// verify checks a result of realization k and its identity with that
// realization's first result, and counts the attempt. It reports whether
// the run passed.
func (b *bench) verify(k int, res *scenario.Result, err error) bool {
	b.attempted++
	if err == nil {
		var enc []byte
		if enc, err = b.in.check(k, res); err == nil {
			if b.first[k] == nil {
				b.first[k], b.firstEnc[k] = res, enc
			} else if !bytes.Equal(enc, b.firstEnc[k]) {
				err = errors.New("result differs from the first run of the same seed")
			}
		}
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "goldenbench: %s: %v\n", b.in.name, err)
		return false
	}
	return true
}

// untraced cycles through the realizations with tracing off until every
// one has run, the first twice, and one more run would overrun the time
// budget; it returns the end-to-end metrics. Allocations per decode are
// the median over realizations of each one's median over its runs.
func (b *bench) untraced(setup []setupTimes) map[string]float64 {
	n := len(b.in.reals)
	var cpus, peaks []float64
	mallocs := make([][]float64, n)
	start := time.Now()
	for i := 0; ; i++ {
		k := i % n
		res, st, err := runUntraced(b.in.reals[k].spec)
		if b.verify(k, res, err) {
			cpus = append(cpus, st.cpu.Seconds())
			peaks = append(peaks, float64(st.peakHeap))
			mallocs[k] = append(mallocs[k], float64(st.mallocs))
		}
		if i >= n && time.Since(start)+st.wall > b.budget {
			break
		}
	}
	var allocs []float64
	for k, r := range b.first {
		if r != nil {
			allocs = append(allocs, perRx(median(mallocs[k]), r))
		}
	}
	return map[string]float64{
		"run_cpu_s":     median(cpus),
		"setup_s":       medianSetup(setup, setupTimes.total),
		"pass_frac":     1 - ratio(float64(b.failed), float64(b.attempted)),
		"peak_heap_mb":  median(peaks) / (1 << 20),
		"allocs_per_rx": median(allocs),
	}
}

// traced cycles through the realizations, running each as an untraced and
// a traced pair, until one more pair would overrun the time budget, and
// returns the per-layer metrics. CPU per module comes from the traced
// runs' profiles, averaged per run; the runtime's GC and allocation
// figures come from the untraced runs, which the hub's own allocations do
// not inflate. Work counts and modelled figures are the first
// realization's, which runs at the run seed.
func (b *bench) traced(setup []setupTimes) map[string]float64 {
	var walls, cpus, tracedCPUs, gcCPU, gcCycles, mallocs, allocBytes []float64
	n := len(b.in.reals)
	cs := make([]*counts, n)
	start := time.Now()
	for i := 0; ; i++ {
		k := i % n
		pairStart := time.Now()
		res, st, err := runUntraced(b.in.reals[k].spec)
		if b.verify(k, res, err) {
			walls = append(walls, st.wall.Seconds())
			cpus = append(cpus, st.cpu.Seconds())
			gcCPU = append(gcCPU, st.gcCPU)
			gcCycles = append(gcCycles, float64(st.gcCycles))
			mallocs = append(mallocs, float64(st.mallocs))
			allocBytes = append(allocBytes, perRx(float64(st.allocBytes), res))
		}
		res, tr, err := runTraced(b.in.reals[k].spec, b.in.moreFlows)
		if err == nil && cs[k] != nil && tr.counts != *cs[k] {
			err = errors.New("telemetry counts differ from the first traced run of the same seed")
		}
		if b.verify(k, res, err) {
			tracedCPUs = append(tracedCPUs, tr.cpu.Seconds())
			b.prof.add(tr.samples)
			if cs[k] == nil {
				cs[k] = &tr.counts
			}
		}
		if time.Since(start)+time.Since(pairStart) > b.budget {
			break
		}
	}

	v := map[string]float64{}
	tracedRuns := float64(len(tracedCPUs))
	cpu := func(mod string) float64 { return ratio(float64(b.prof.ns[mod]), tracedRuns) / 1e9 }
	var listed int64
	for _, m := range modules {
		v[m+".cpu_s"] = cpu(m)
		listed += b.prof.ns[m]
	}
	v["runtime.other_cpu_s"] = cpu(otherModule)
	listed += b.prof.ns[otherModule]
	var total int64
	for _, ns := range b.prof.ns {
		total += ns
	}
	if listed != total {
		fmt.Fprintf(os.Stderr, "goldenbench: %.3fs of profile CPU fell in unlisted modules\n", float64(total-listed)/1e9)
	}
	v["profile.samples"] = float64(b.prof.samples)
	v["runtime.gc_cpu_s"] = median(gcCPU)
	v["runtime.gc_cycles"] = median(gcCycles)
	v["runtime.allocs"] = median(mallocs)
	v["host.wall_s"] = median(walls)
	v["telemetry.overhead"] = ratio(median(tracedCPUs), median(cpus)) - 1

	v["scenario.parse_s"] = medianSetup(setup, func(t setupTimes) time.Duration { return t.parse })
	v["graph.build_s"] = medianSetup(setup, func(t setupTimes) time.Duration { return t.build })
	v["sim.new_s"] = medianSetup(setup, func(t setupTimes) time.Duration { return t.simNew })
	v["experiments.controlplane_s"] = medianSetup(setup, func(t setupTimes) time.Duration { return t.controlPlane })
	v["flow.newfile_s"] = medianSetup(setup, func(t setupTimes) time.Duration { return t.newFile })

	c := cs[0]
	if c == nil {
		c = &counts{}
	}
	r := b.first[0]
	if r == nil {
		r = &scenario.Result{}
	}
	rx := float64(c.Rx)
	v["sim.ns_per_rx"] = ratio(cpu("sim")*1e9, rx)
	v["linkstate.ns_per_rx"] = ratio(cpu("linkstate")*1e9, rx)
	v["coding.ns_per_coded_rx"] = ratio(cpu("coding")*1e9, float64(c.CodedRx))
	v["sim.tx"] = float64(c.Tx)
	v["sim.rx"] = rx
	v["sim.mac_acks"] = float64(c.MACAcks)
	v["sim.collisions"] = float64(c.Collisions)
	v["sim.channel_losses"] = float64(c.ChannelLosses)
	v["sim.loss_frac"] = ratio(float64(c.Collisions+c.ChannelLosses), float64(c.Rx+c.Collisions+c.ChannelLosses))
	v["probe.tx"] = float64(r.ProbeTx)
	v["linkstate.flood_tx"] = float64(r.FloodTx)
	v["linkstate.lsa_floods"] = float64(c.LSAFloods)
	v["congest.enqueued"] = float64(c.Enqueued)
	v["congest.dequeued"] = float64(c.Dequeued)
	v["congest.queue_drops"] = float64(c.QueueDrops)
	v["congest.drop_frac"] = ratio(float64(c.QueueDrops), float64(c.QueueDrops+c.Dequeued))
	v["congest.grants"] = float64(c.Grants)
	v["congest.queue_wait_p99_ms"] = c.QueueWaitP99NS / 1e6
	v["coding.coded_rx"] = float64(c.CodedRx)
	v["core.batches_decoded"] = float64(c.BatchesDecoded)
	v["protocol.replans"] = float64(c.Replans)
	v["srcr.pkt_sent"] = float64(c.PktSent)
	v["srcr.pkt_delivered"] = float64(c.PktDelivered)
	v["alloc_bytes_per_rx"] = median(allocBytes)
	v["tx_per_pkt"] = txPerPkt(r)
	v["goodput_pps"] = goodputPPS(r)
	v["flow.done_frac"] = doneFrac(r)
	return v
}

// medianSetup is the median over set-up passes of one timed part, in
// seconds.
func medianSetup(setup []setupTimes, part func(setupTimes) time.Duration) float64 {
	ds := make([]time.Duration, len(setup))
	for i, t := range setup {
		ds[i] = part(t)
	}
	return median(seconds(ds))
}

// cpuModel reads the processor's model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
