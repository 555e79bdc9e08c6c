package main

// metricDef names a reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units (metrics_test.go keeps
// the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"run_cpu_s", "s"},
	{"setup_s", "s"},
	{"allocs_per_rx", "count"},
	{"peak_heap_mb", "MiB"},
	{"pass_frac", "ratio"},
}

// modules are the repository's modules, each billed CPU time in a traced
// run as <module>.cpu_s.
var modules = []string{
	"scenario", "graph", "sim", "probe", "linkstate", "routing", "congest",
	"core", "exor", "srcr", "coding", "gf256", "flow", "packet",
	"experiments", "telemetry", "trace", "stats",
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = append(moduleCPU(), []metricDef{
	{"runtime.other_cpu_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.allocs", "count"},
	{"sim.ns_per_rx", "ns"},
	{"linkstate.ns_per_rx", "ns"},
	{"coding.ns_per_coded_rx", "ns"},
	{"scenario.parse_s", "s"},
	{"graph.build_s", "s"},
	{"sim.new_s", "s"},
	{"experiments.controlplane_s", "s"},
	{"flow.newfile_s", "s"},
	{"sim.tx", "count"},
	{"sim.rx", "count"},
	{"sim.mac_acks", "count"},
	{"sim.collisions", "count"},
	{"sim.channel_losses", "count"},
	{"sim.loss_frac", "ratio"},
	{"probe.tx", "count"},
	{"linkstate.flood_tx", "count"},
	{"linkstate.lsa_floods", "count"},
	{"congest.enqueued", "count"},
	{"congest.dequeued", "count"},
	{"congest.queue_drops", "count"},
	{"congest.drop_frac", "ratio"},
	{"congest.grants", "count"},
	{"congest.queue_wait_p99_ms", "ms"},
	{"coding.coded_rx", "count"},
	{"core.batches_decoded", "count"},
	{"protocol.replans", "count"},
	{"srcr.pkt_sent", "count"},
	{"srcr.pkt_delivered", "count"},
	{"alloc_bytes_per_rx", "B"},
	{"tx_per_pkt", "count"},
	{"goodput_pps", "pkt/s"},
	{"flow.done_frac", "ratio"},
	{"host.wall_s", "s"},
	{"telemetry.overhead", "ratio"},
	{"profile.samples", "count"},
}...)

func moduleCPU() []metricDef {
	out := make([]metricDef, len(modules))
	for i, m := range modules {
		out[i] = metricDef{m + ".cpu_s", "s"}
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders values against a metric table; it panics on a value the
// table lacks or a table entry left without a value, both bugs.
func report(defs []metricDef, values map[string]float64) map[string]metric {
	if len(values) != len(defs) {
		panic("goldenbench: metric values do not match the metric table")
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("goldenbench: no value for metric " + d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}
