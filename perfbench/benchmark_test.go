package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		known := false
		for _, k := range workloads {
			known = known || k == w.Name
		}
		if !known {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	check := func(what string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, program has [%s]", what, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndUnits)
	check("per_layer", doc.PerLayer, perLayerUnits)
}
