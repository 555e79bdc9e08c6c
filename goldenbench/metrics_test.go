package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares exactly the workloads and
// metrics the program runs and reports.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, run %s", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind     string
		declared []def
		table    []metricDef
	}{{"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		if len(c.declared) != len(c.table) {
			t.Errorf("%s: %d metrics declared, %d reported", c.kind, len(c.declared), len(c.table))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.table[i].name || d.Unit != c.table[i].unit {
				t.Errorf("%s %d: declared %s [%s], reported %s [%s]",
					c.kind, i, d.Name, d.Unit, c.table[i].name, c.table[i].unit)
			}
		}
	}
}
