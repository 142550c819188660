package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpmmap/internal/ledger"
	"hpmmap/internal/metrics"
)

// writeLedger journals one 4-cell plan; quarantine marks cell 1
// quarantined.
func writeLedger(t *testing.T, path string, quarantine bool) {
	t.Helper()
	l, err := ledger.Open(path, ledger.Meta{Model: "m1", Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	l.BeginPlan("fig7", 42, 4, 2)
	for i := 0; i < 4; i++ {
		l.CellStart(i, fmt.Sprintf("fig7 cell#%d", i), uint64(i))
		l.CellHost(i, i%2, 1000000, 4096)
		status, errText := ledger.StatusOK, ""
		if quarantine && i == 1 {
			status, errText = ledger.StatusQuarantined, "boom"
		}
		l.CellFinish(i, status, errText)
	}
	l.EndPlan()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiffLedgersIdenticalClean(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	writeLedger(t, a, false)
	writeLedger(t, b, false)
	var out bytes.Buffer
	tripped, err := diffFiles(&out, a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tripped {
		t.Fatalf("identical ledgers tripped the gate:\n%s", out.String())
	}
}

func TestDiffLedgersStatusRegressionAlwaysTrips(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	writeLedger(t, a, false)
	writeLedger(t, b, true) // cell 1 ok -> quarantined
	var out bytes.Buffer
	tripped, err := diffFiles(&out, a, b, 1000) // huge pct: status still gates
	if err != nil {
		t.Fatal(err)
	}
	if !tripped {
		t.Fatalf("status regression did not trip:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "cell #1") {
		t.Fatalf("diff does not name the regressed cell:\n%s", out.String())
	}
}

func snapshotFiles(t *testing.T, dir string, scale uint64) (prom, jsonPath string) {
	t.Helper()
	r := metrics.NewRegistry()
	r.Counter(metrics.SimEventsTotal).Add(100 * scale)
	r.GaugeFunc(metrics.KernelCommitPressure, func() float64 { return 0.5 })
	h := r.Histogram(metrics.FaultSmallCycles)
	h.Observe(10 * scale)
	snap := r.Snapshot()
	prom = filepath.Join(dir, fmt.Sprintf("s%d.prom", scale))
	jsonPath = filepath.Join(dir, fmt.Sprintf("s%d.json", scale))
	var pb, jb bytes.Buffer
	if err := snap.WriteOpenMetrics(&pb); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prom, pb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, jb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return prom, jsonPath
}

func TestDiffSnapshotsPromAndJSON(t *testing.T) {
	dir := t.TempDir()
	prom1, json1 := snapshotFiles(t, dir, 1)
	prom2, json2 := snapshotFiles(t, dir, 2) // counters doubled: way past 10%

	for _, c := range []struct {
		a, b string
		want bool
	}{
		{prom1, prom1, false},
		{json1, json1, false},
		{prom1, prom2, true},
		{json1, json2, true},
	} {
		var out bytes.Buffer
		tripped, err := diffFiles(&out, c.a, c.b, 10)
		if err != nil {
			t.Fatalf("diff %s %s: %v", c.a, c.b, err)
		}
		if tripped != c.want {
			t.Errorf("diff %s %s: tripped=%v, want %v\n%s", c.a, c.b, tripped, c.want, out.String())
		}
	}

	// Mixed extensions are a usage error, not a silent pass.
	var out bytes.Buffer
	if _, err := diffFiles(&out, prom1, filepath.Join(dir, "a.jsonl"), 10); err == nil {
		t.Error("mixed extensions did not error")
	}
}

func TestDiffSnapshotsAppearDisappear(t *testing.T) {
	a := metrics.Snapshot{Metrics: []metrics.Metric{{Name: "x_total", Kind: metrics.KindCounter, Value: 1}}}
	b := metrics.Snapshot{Metrics: []metrics.Metric{{Name: "y_total", Kind: metrics.KindCounter, Value: 1}}}
	var out bytes.Buffer
	if !diffSnapshots(&out, a, b, 1000) {
		t.Fatalf("appear/disappear did not trip:\n%s", out.String())
	}
	for _, want := range []string{"disappeared", "appeared"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestSummary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	writeLedger(t, path, true)
	var out bytes.Buffer
	if err := summary(&out, path, 3); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"plan fig7: 4 cells (3 ok, 1 quarantined, 0 failed)",
		"model m1", "scale 0.25",
		"workers 2",
		"slowest cells:",
		"[quarantined]",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary lacks %q:\n%s", want, s)
		}
	}
}

func TestWatchOnce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	writeLedger(t, path, true)
	var out bytes.Buffer
	if err := watch(&out, path, 0, true); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"=== plan fig7: 4 cells",
		"host: 2 workers",
		"> #1", "< #1    quarantined: boom",
		"=== plan fig7 done: 3 ok, 1 quarantined, 0 failed",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("watch output lacks %q:\n%s", want, s)
		}
	}
}
