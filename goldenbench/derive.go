package main

import (
	"sort"
	"time"

	"repro/internal/scenario"
)

// delivered is the native packets delivered end to end over all flows.
func delivered(r *scenario.Result) int64 {
	var n int64
	for _, f := range r.Flows {
		n += int64(f.Result.PacketsDelivered)
	}
	return n
}

// txPerPkt is every frame transmission of the run (data, control and MAC
// retries; not MAC ACKs) per delivered native packet: the paper's cost
// measure, with the measurement plane's probes and LSAs billed as well.
func txPerPkt(r *scenario.Result) float64 {
	return ratio(float64(r.Counters.Transmissions), float64(delivered(r)))
}

// goodputPPS is delivered packets per simulated second from the traffic
// epoch to the end of the run: the paper's throughput unit.
func goodputPPS(r *scenario.Result) float64 {
	return ratio(float64(delivered(r)), (r.End - r.Epoch).Seconds())
}

// perRx divides a quantity by the run's frame decodes, the per-event
// denominator until the simulator counts its events.
func perRx(v float64, r *scenario.Result) float64 {
	return ratio(v, float64(r.Counters.Deliveries))
}

// doneFrac is the share of flows that met their schedule.
func doneFrac(r *scenario.Result) float64 {
	done := 0
	for _, f := range r.Flows {
		if f.Done {
			done++
		}
	}
	return ratio(float64(done), float64(len(r.Flows)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of a non-empty sample; the mean of the middle two for an even
// count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
