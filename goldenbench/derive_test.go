package main

import (
	"math"
	"os"
	"testing"

	"repro/internal/scenario"
)

// loadGolden reads a sealed golden result document.
func loadGolden(t *testing.T, name string) *scenario.Result {
	t.Helper()
	data, err := os.ReadFile("../scenarios/golden/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario.ValidateResult(data)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The derived metrics of sealed goldens, against values worked out by hand
// from the numbers in each golden document.
func TestDerivedMetricsFromGoldens(t *testing.T) {
	for _, c := range []struct {
		name                    string
		txPerPkt, goodput, rx1k float64
		done                    float64
	}{
		// paper-testbed: 826 transmissions, one MORE flow delivering 175
		// packets between epoch 0 and end 2134183574 ns, 4174 decodes.
		{"paper-testbed", 826.0 / 175, 175 / 2.134183574, 1000.0 / 4174, 1},
		// soak-churn: 108875 transmissions, a push stream delivering 11694
		// packets from epoch 30 s to 480.032582739 s, 982204 decodes.
		{"soak-churn", 108875.0 / 11694, 11694 / 450.032582739, 1000.0 / 982204, 1},
		// loadaware-768: 70796 transmissions; four 44-packet MORE flows
		// plus 2438 blast packets over 120.499914912 s; 1068458 decodes.
		{"loadaware-768", 70796.0 / (4*44 + 2438), (4*44 + 2438) / 120.499914912, 1000.0 / 1068458, 1},
	} {
		r := loadGolden(t, c.name)
		if got := txPerPkt(r); !near(got, c.txPerPkt) {
			t.Errorf("%s: tx_per_pkt %v, want %v", c.name, got, c.txPerPkt)
		}
		if got := goodputPPS(r); !near(got, c.goodput) {
			t.Errorf("%s: goodput_pps %v, want %v", c.name, got, c.goodput)
		}
		if got := perRx(1000, r); !near(got, c.rx1k) {
			t.Errorf("%s: 1000 per rx %v, want %v", c.name, got, c.rx1k)
		}
		if got := doneFrac(r); got != c.done {
			t.Errorf("%s: done_frac %v, want %v", c.name, got, c.done)
		}
	}
}

func TestRatioAndMedian(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio")
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Error("median")
	}
}
