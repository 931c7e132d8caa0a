package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root must describe what this program
// prints: the same workloads, and the same metric names, units and
// directions in the same lists.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, bf.Workloads[i].Name, w.name)
		}
	}
	check := func(list string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", list, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %s/%s/%s in BENCHMARK.json, %s/%s/%s in the program",
					list, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", list, g.Name, g.Bound != nil)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer(), false)
	setup := 0.0
	for _, e := range bf.EndToEnd {
		if e.Name == "setup_s" {
			setup = *e.Bound
		}
	}
	for _, e := range bf.EndToEnd {
		if *e.Bound <= 0 || *e.Bound > 0.25 || *e.Bound > setup {
			t.Errorf("%s: bound %v; want (0, 0.25] and no larger than setup_s's %v", e.Name, *e.Bound, setup)
		}
	}
}
