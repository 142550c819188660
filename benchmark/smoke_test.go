package main

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"hpmmap/internal/metrics"
)

// TestSmoke runs every workload once at reduced size in this process,
// and the traced path once, through to the layer attribution.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, w := range workloads {
		r := runRep(w, w.defaultSeed, repOptions{workers: 2, reduced: true})
		if r.Err != "" || r.Failed != 0 || r.Cells == 0 || r.Digest == "" {
			t.Errorf("%s: %d of %d cells failed, err %q, digest %q", w.name, r.Failed, r.Cells, r.Err, r.Digest)
		}
		if _, ok := timings(r); !ok {
			t.Errorf("%s: no timings from %+v", w.name, r)
		}
	}

	dir := t.TempDir()
	prof, spans := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "spans.json")
	w, _ := workloadByName("faultstudy")
	plain := runRep(w, w.defaultSeed, repOptions{workers: 2, reduced: true})
	traced := runRep(w, w.defaultSeed, repOptions{workers: 2, reduced: true, profile: prof, spans: spans})
	if traced.Err != "" || traced.Digest != plain.Digest {
		t.Fatalf("traced rep: err %q, digest %s, untraced digest %s", traced.Err, traced.Digest, plain.Digest)
	}
	if traced.CellWallNS <= 0 || traced.Counters[metrics.SimEventsTotal] == 0 {
		t.Errorf("traced rep: cell wall %d ns, %d events", traced.CellWallNS, traced.Counters[metrics.SimEventsTotal])
	}
	if _, err := os.Stat(spans); err != nil {
		t.Error(err)
	}
	var out bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", prof)
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		t.Fatal(err)
	}
	shares := layerShares{}
	if err := attribute(&out, shares); err != nil {
		// A reduced rep can finish before the profiler takes a sample.
		t.Logf("no samples: %v", err)
		return
	}
	var sum float64
	for _, p := range shares.percentages() {
		sum += p
	}
	if math.Abs(sum-100) > 0.5 {
		t.Errorf("shares sum to %v", sum)
	}
}
