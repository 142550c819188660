package trace

import (
	"strings"
	"testing"

	"hpmmap/internal/fault"
	"hpmmap/internal/sim"
)

func sample() *Recorder {
	r := NewRecorder()
	for i := 0; i < 100; i++ {
		r.Record(fault.Record{At: sim.Cycles(i * 1000), Cost: 2000, Kind: fault.KindSmall, PID: 1})
	}
	for i := 0; i < 10; i++ {
		r.Record(fault.Record{At: sim.Cycles(i * 10000), Cost: 370000, Kind: fault.KindLarge, PID: 1})
	}
	r.Record(fault.Record{At: 55555, Cost: 1000000, Kind: fault.KindMergeBlocked, PID: 1, Stalls: true})
	return r
}

func TestSummarize(t *testing.T) {
	r := sample()
	sums := r.Summarize()
	if len(sums) != 3 {
		t.Fatalf("%d kinds summarized", len(sums))
	}
	bykind := map[fault.Kind]KindSummary{}
	for _, s := range sums {
		bykind[s.Kind] = s
	}
	small := bykind[fault.KindSmall]
	if small.Count != 100 || small.AvgCycles != 2000 || small.StdevCycles != 0 {
		t.Fatalf("small summary %+v", small)
	}
	if bykind[fault.KindMergeBlocked].MaxCycles != 1000000 {
		t.Fatal("merge max wrong")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got := NewRecorder().Summarize(); len(got) != 0 {
		t.Fatalf("empty recorder summarized to %v", got)
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := sample().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 112 { // header + 111 records
		t.Fatalf("%d CSV lines", len(lines))
	}
	if lines[0] != "at_cycles,cost_cycles,kind,pid,stalled" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], "merge") {
		t.Fatal("last record should be the merge fault")
	}
}

func TestScatterShapes(t *testing.T) {
	out := sample().Scatter(60, 12, true)
	if !strings.Contains(out, "O") || !strings.Contains(out, ".") || !strings.Contains(out, "M") {
		t.Fatalf("scatter missing glyphs:\n%s", out)
	}
	// Merge fault is the most expensive: its glyph appears on the top
	// data row.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "M") {
		t.Fatalf("top row should hold the merge outlier:\n%s", out)
	}
	if NewRecorder().Scatter(60, 12, false) != "(no faults)\n" {
		t.Fatal("empty scatter not handled")
	}
	// Tiny dimensions are clamped, not crashed.
	_ = sample().Scatter(1, 1, false)
}

func TestHistogram(t *testing.T) {
	r := sample()
	h := r.Histogram(fault.KindSmall, 8, 40)
	if !strings.Contains(h, "#") || !strings.Contains(h, "100 faults") {
		t.Fatalf("histogram:\n%s", h)
	}
	if got := r.Histogram(fault.KindHugeTLBLarge, 8, 40); !strings.Contains(got, "no hugetlb-large faults") {
		t.Fatalf("empty histogram: %q", got)
	}
	// Degenerate bucket count clamps.
	_ = r.Histogram(fault.KindSmall, 1, 10)
}
