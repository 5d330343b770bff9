package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// workloads in step with what the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestCorruptedReferenceIsCaught runs one tree-tight job, checks it
// against the committed reference, and shows that a reference with one
// flipped bit in the optimum or one extra state node fails the check.
func TestCorruptedReferenceIsCaught(t *testing.T) {
	w, _ := workloadByName("tree-tight")
	jobs, err := w.jobs()
	if err != nil {
		t.Fatal(err)
	}
	refs, err := loadReferences("ref", w.refName())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := w.setup(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	j := jobs[0]
	res, err := w.solve(context.Background(), sys, j)
	if err != nil {
		t.Fatal(err)
	}
	if err := refs.check(j.key, res); err != nil {
		t.Fatalf("committed reference: %v", err)
	}

	leak := refs[j.key]
	leak.LeakNA = math.Nextafter(leak.LeakNA, math.Inf(1))
	nodes := refs[j.key]
	nodes.StateNodes++
	for name, bad := range map[string]reference{"leak_na": leak, "state_nodes": nodes} {
		corrupt := references{j.key: bad}
		if err := corrupt.check(j.key, res); !errors.Is(err, errMismatch) {
			t.Errorf("reference with corrupted %s: check returned %v, want a mismatch", name, err)
		}
	}
}
