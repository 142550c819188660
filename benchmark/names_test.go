package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesCode checks that every workload and metric
// the benchmark prints is listed in BENCHMARK.json, as the code defines
// it, and that every name is well formed and used once.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}

	compare := func(kind string, listed, printed []metricDef) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(printed))
			return
		}
		for i := range printed {
			if listed[i] != printed[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, listed[i], printed[i])
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer())

	seen := map[string]bool{}
	for _, w := range b.Workloads {
		seen[w.Name] = false
	}
	for _, name := range append(names(b.EndToEnd), names(b.PerLayer)...) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
		}
		if _, dup := seen[name]; dup {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, def := range b.EndToEnd {
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

// TestMeasurePrintsEveryListedMetric checks the printed key sets: the
// result of a run carries exactly the metrics of its kind.
func TestMeasurePrintsEveryListedMetric(t *testing.T) {
	rep := repResult{Cells: 2, WallNS: 1, CPUNS: 1, AllocBytes: 3 << 20, SetupNS: 1, ProbeNS: probeNominalNS, Counters: map[string]uint64{"sim_events_total": 1}}
	later := rep
	later.AllocBytes = 5 << 20
	vals := endToEndValues([]repResult{rep, later}, []float64{1e-3})
	for _, def := range endToEnd {
		if v, ok := vals[def.Name]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v, %v; want a positive value", def.Name, v, ok)
		}
	}
	if len(vals) != len(endToEnd) {
		t.Errorf("a run computes %d end-to-end metrics, want %d", len(vals), len(endToEnd))
	}
	if got := vals["alloc_mb_per_cell"]; got != 1.5 {
		t.Errorf("alloc_mb_per_cell = %v, want 1.5 (the reference rep's)", got)
	}
}
