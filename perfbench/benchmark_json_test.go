package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric lists
// the command prints in step: a run must print exactly the metrics the file
// declares, with the same units, and only for workloads that exist.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		want := map[string]string{}
		for _, d := range printed {
			want[d.name] = d.unit
		}
		if len(declared) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", kind, len(declared), len(want))
		}
		for _, d := range declared {
			if u, ok := want[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q, the command prints %q", kind, d.Name, d.Unit, u)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
