package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric sets
// the benchmark prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s the benchmark does not run", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloadFuncs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadFuncs))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
