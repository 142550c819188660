package experiments

import (
	"strings"
	"testing"

	"hpmmap/internal/fault"
	"hpmmap/internal/sim"
	"hpmmap/internal/trace"
)

func fakeStudy() FaultStudy {
	mk := func(loaded bool) FaultStudyRow {
		rec := trace.NewRecorder()
		rec.Record(fault.Record{At: 1, Cost: 2000, Kind: fault.KindSmall})
		rec.Record(fault.Record{At: 2, Cost: 400000, Kind: fault.KindLarge})
		return FaultStudyRow{Loaded: loaded, Summaries: rec.Summarize(), Recorder: rec}
	}
	return FaultStudy{Bench: "miniMD", Kind: THP, Rows: []FaultStudyRow{mk(false), mk(true)}}
}

func TestWriteFaultStudy(t *testing.T) {
	var b strings.Builder
	WriteFaultStudy(&b, fakeStudy())
	out := b.String()
	for _, want := range []string{"miniMD", "Linux (THP)", "small", "large", "No", "Yes", "2000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteTimelines(t *testing.T) {
	rec := trace.NewRecorder()
	for i := sim.Cycles(0); i < 50; i++ {
		rec.Record(fault.Record{At: i * 1000, Cost: 2000, Kind: fault.KindSmall})
	}
	var b strings.Builder
	WriteTimelines(&b, "Figure 4", []Timeline{{Title: "(a)", Recorder: rec}}, 40, 8)
	out := b.String()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "(a)") || !strings.Contains(out, ".") {
		t.Fatalf("timelines output:\n%s", out)
	}
}

func TestWriteFig7AndImprovements(t *testing.T) {
	panels := []Fig7Panel{{
		Bench:   "HPCCG",
		Profile: ProfileA,
		Series: []Fig7Series{
			{Kind: HPMMAP, Points: []Fig7Point{{Cores: 8, MeanSec: 80, StdevSec: 1}}},
			{Kind: THP, Points: []Fig7Point{{Cores: 8, MeanSec: 100, StdevSec: 5}}},
			{Kind: HugeTLBfs, Points: []Fig7Point{{Cores: 8, MeanSec: 90, StdevSec: 2}}},
		},
	}}
	var b strings.Builder
	WriteFig7(&b, panels)
	out := b.String()
	if !strings.Contains(out, "HPCCG") || !strings.Contains(out, "80.0") {
		t.Fatalf("fig7 output:\n%s", out)
	}
	if !strings.Contains(out, "+20.0%") {
		t.Fatalf("improvement line missing:\n%s", out)
	}
	if got := MeanImprovement(panels, HPMMAP, THP); got != 0.2 {
		t.Fatalf("MeanImprovement = %v", got)
	}
	if got := MeanImprovement(panels, HPMMAP, HugeTLBfs); got < 0.11 || got > 0.12 {
		t.Fatalf("vs hugetlbfs = %v", got)
	}
	if _, ok := PointFor(panels, "HPCCG", ProfileA, THP, 8); !ok {
		t.Fatal("PointFor missed")
	}
	if _, ok := PointFor(panels, "nope", ProfileA, THP, 8); ok {
		t.Fatal("PointFor found a ghost")
	}
}

func TestWriteFig8(t *testing.T) {
	panels := []Fig7Panel{{
		Bench:   "HPCCG",
		Profile: ProfileC,
		Series: []Fig7Series{
			{Kind: HPMMAP, Points: []Fig7Point{{Cores: 32, MeanSec: 200, StdevSec: 1}}},
			{Kind: THP, Points: []Fig7Point{{Cores: 32, MeanSec: 225, StdevSec: 2}}},
		},
	}}
	var b strings.Builder
	WriteFig8(&b, panels)
	out := b.String()
	if !strings.Contains(out, "profile C") || !strings.Contains(out, "+11.1%") {
		t.Fatalf("fig8 output:\n%s", out)
	}
	if got := Fig8Improvement(panels[0], 32); got < 0.111 || got > 0.112 {
		t.Fatalf("Fig8Improvement = %v", got)
	}
}
