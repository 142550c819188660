package experiments

import (
	"strings"
	"testing"

	"hpmmap/internal/fault"
	"hpmmap/internal/kernel"
	"hpmmap/internal/sim"
	"hpmmap/internal/workload"
)

// These tests encode the paper's headline shapes (DESIGN.md §3). Most run
// one or two full-scale cells; the exhaustive sweeps live in the bench
// harness. Heavy cases are skipped with -short.

func TestExecuteSingleNodeBasics(t *testing.T) {
	spec, _ := workload.ByName("HPCCG")
	out, err := ExecuteSingleNode(SingleRun{
		Bench: spec, Kind: HPMMAP, Profile: ProfileNone, Ranks: 2, Seed: 42, Scale: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.RuntimeSec <= 0 {
		t.Fatal("zero runtime")
	}
	for _, rr := range out.Result.Ranks {
		if rr.Faults.TotalFaults() != 0 {
			t.Fatalf("hpmmap rank faulted: %+v", rr.Faults)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec, _ := workload.ByName("miniFE")
	run := func() float64 {
		out, err := ExecuteSingleNode(SingleRun{
			Bench: spec, Kind: THP, Profile: ProfileA, Ranks: 2, Seed: 1234, Scale: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.RuntimeSec
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different runtimes: %v vs %v", a, b)
	}
}

func TestSeedsProduceVariance(t *testing.T) {
	spec, _ := workload.ByName("miniFE")
	a, err := ExecuteSingleNode(SingleRun{Bench: spec, Kind: THP, Profile: ProfileA, Ranks: 2, Seed: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteSingleNode(SingleRun{Bench: spec, Kind: THP, Profile: ProfileA, Ranks: 2, Seed: 2, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if a.RuntimeSec == b.RuntimeSec {
		t.Fatal("different seeds produced identical runtimes")
	}
}

func TestPinCores(t *testing.T) {
	r, err := Boot(kernel.DellR415(), sim.NewEngine(), 1, THP, false, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ranks int
		want  []int
	}{
		{1, []int{0}},
		{2, []int{0, 6}},
		{4, []int{0, 1, 6, 7}},
		{8, []int{0, 1, 2, 3, 6, 7, 8, 9}},
	}
	for _, c := range cases {
		got, err := pinCores(r.Node, c.ranks)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("ranks=%d: %v", c.ranks, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ranks=%d: %v want %v", c.ranks, got, c.want)
			}
		}
	}
	if _, err := pinCores(r.Node, 99); err == nil {
		t.Fatal("99 ranks accepted")
	}
}

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale detail run")
	}
	fs, err := Fig2(FaultStudyOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Rows) != 2 {
		t.Fatalf("rows: %d", len(fs.Rows))
	}
	noload, loaded := fs.Rows[0], fs.Rows[1]
	small0, ok := SummaryFor(noload, fault.KindSmall)
	if !ok {
		t.Fatal("no small faults")
	}
	large0, ok := SummaryFor(noload, fault.KindLarge)
	if !ok {
		t.Fatal("no large faults")
	}
	merge0, ok := SummaryFor(noload, fault.KindMergeBlocked)
	if !ok {
		t.Fatal("no merge faults")
	}
	// Headline ratios: large ≈ 200x+ small; merge ≈ 500x+ small.
	if large0.AvgCycles < 100*small0.AvgCycles {
		t.Fatalf("large/small ratio %.0f", large0.AvgCycles/small0.AvgCycles)
	}
	if merge0.AvgCycles < 300*small0.AvgCycles {
		t.Fatalf("merge/small ratio %.0f", merge0.AvgCycles/small0.AvgCycles)
	}
	// Counts: ~10^5 small, ~10^3 large, ~10^1 merges.
	if small0.Count < 50_000 || small0.Count > 1_000_000 {
		t.Fatalf("small count %d", small0.Count)
	}
	if large0.Count < 300 || large0.Count > 10_000 {
		t.Fatalf("large count %d", large0.Count)
	}
	if merge0.Count < 3 || merge0.Count > 500 {
		t.Fatalf("merge count %d", merge0.Count)
	}
	// Load inflates small and large fault service times.
	small1, _ := SummaryFor(loaded, fault.KindSmall)
	large1, _ := SummaryFor(loaded, fault.KindLarge)
	if small1.AvgCycles <= small0.AvgCycles {
		t.Fatal("load did not inflate small faults")
	}
	if large1.AvgCycles <= large0.AvgCycles {
		t.Fatal("load did not inflate large faults")
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale detail run")
	}
	fs, err := Fig3(FaultStudyOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	noload, loaded := fs.Rows[0], fs.Rows[1]
	hl0, ok := SummaryFor(noload, fault.KindHugeTLBLarge)
	if !ok {
		t.Fatal("no hugetlb-large faults")
	}
	// Per-fault cost in the paper's ~735K band.
	if hl0.AvgCycles < 400e3 || hl0.AvgCycles > 1.2e6 {
		t.Fatalf("hugetlb-large avg %.0f", hl0.AvgCycles)
	}
	hs0, ok := SummaryFor(noload, fault.KindHugeTLBSmall)
	if !ok {
		t.Fatal("no hugetlb-small faults")
	}
	if hs0.AvgCycles > 10_000 {
		t.Fatalf("unloaded hugetlb-small avg %.0f", hs0.AvgCycles)
	}
	// Under load: mean jumps orders of magnitude, stdev >> mean.
	hs1, _ := SummaryFor(loaded, fault.KindHugeTLBSmall)
	if hs1.AvgCycles < 5*hs0.AvgCycles {
		t.Fatalf("loaded hugetlb-small avg %.0f vs unloaded %.0f", hs1.AvgCycles, hs0.AvgCycles)
	}
	if hs1.StdevCycles < 3*hs1.AvgCycles {
		t.Fatalf("loaded hugetlb-small stdev %.0f not >> mean %.0f", hs1.StdevCycles, hs1.AvgCycles)
	}
	// No THP activity in this configuration.
	if _, ok := SummaryFor(loaded, fault.KindMergeBlocked); ok {
		t.Fatal("merge faults under HugeTLBfs (THP disabled)")
	}
}

func TestFig4TimelinesSpanTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale detail run")
	}
	tls, err := Fig4(FaultStudyOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tls) != 4 {
		t.Fatalf("%d timelines, want 4 (a–d)", len(tls))
	}
	for _, tl := range tls {
		if tl.Recorder.Len() == 0 {
			t.Fatalf("%s: empty", tl.Title)
		}
		s := tl.Recorder.Scatter(60, 10, true)
		if !strings.Contains(s, ".") {
			t.Fatalf("%s: no small-fault band", tl.Title)
		}
	}
	// The zoomed views must have a lower ceiling than the full views.
	fullMax := maxCost(tls[0])
	zoomMax := maxCost(tls[2])
	if zoomMax*3 > fullMax {
		t.Fatalf("zoom ceiling %d vs full %d", zoomMax, fullMax)
	}
}

func maxCost(tl Timeline) uint64 {
	var m uint64
	for _, r := range tl.Recorder.Records() {
		if uint64(r.Cost) > m {
			m = uint64(r.Cost)
		}
	}
	return m
}

func TestFig7HeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full-scale runs")
	}
	panels, err := Fig7(Fig7Options{
		Benches:    []string{"HPCCG"},
		Profiles:   []Profile{ProfileA, ProfileB},
		CoreCounts: []int{1, 8},
		Runs:       3,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range []Profile{ProfileA, ProfileB} {
		for _, cores := range []int{1, 8} {
			hp, ok1 := PointFor(panels, "HPCCG", prof, HPMMAP, cores)
			th, ok2 := PointFor(panels, "HPCCG", prof, THP, cores)
			ht, ok3 := PointFor(panels, "HPCCG", prof, HugeTLBfs, cores)
			if !ok1 || !ok2 || !ok3 {
				t.Fatalf("missing points for %s/%d", prof, cores)
			}
			// HPMMAP wins every cell.
			if hp.MeanSec >= th.MeanSec {
				t.Errorf("%s/%d: HPMMAP %.1f !< THP %.1f", prof, cores, hp.MeanSec, th.MeanSec)
			}
			if hp.MeanSec >= ht.MeanSec {
				t.Errorf("%s/%d: HPMMAP %.1f !< HugeTLBfs %.1f", prof, cores, hp.MeanSec, ht.MeanSec)
			}
		}
	}
	// THP's deficit grows with core count (profile A).
	hp1, _ := PointFor(panels, "HPCCG", ProfileA, HPMMAP, 1)
	th1, _ := PointFor(panels, "HPCCG", ProfileA, THP, 1)
	hp8, _ := PointFor(panels, "HPCCG", ProfileA, HPMMAP, 8)
	th8, _ := PointFor(panels, "HPCCG", ProfileA, THP, 8)
	if th8.MeanSec/hp8.MeanSec <= th1.MeanSec/hp1.MeanSec {
		t.Errorf("THP deficit did not grow with cores: %0.2f at 1, %0.2f at 8",
			th1.MeanSec/hp1.MeanSec, th8.MeanSec/hp8.MeanSec)
	}
	// HugeTLBfs collapses at 8 cores under profile B.
	htB8, _ := PointFor(panels, "HPCCG", ProfileB, HugeTLBfs, 8)
	hpB8, _ := PointFor(panels, "HPCCG", ProfileB, HPMMAP, 8)
	if htB8.MeanSec < 1.25*hpB8.MeanSec {
		t.Errorf("HugeTLBfs B/8 %.1f not >> HPMMAP %.1f", htB8.MeanSec, hpB8.MeanSec)
	}
	// HPMMAP runs consistently: CV below the Linux managers' at 8/B.
	thB8, _ := PointFor(panels, "HPCCG", ProfileB, THP, 8)
	if hpB8.MeanSec > 0 && thB8.MeanSec > 0 {
		hpCV := hpB8.StdevSec / hpB8.MeanSec
		thCV := thB8.StdevSec / thB8.MeanSec
		if hpCV > thCV+0.02 {
			t.Errorf("HPMMAP CV %.3f above THP CV %.3f", hpCV, thCV)
		}
	}
}

func TestFig8HeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node full-scale runs")
	}
	panels, err := Fig8(Fig7Options{
		Benches:    []string{"HPCCG"},
		Profiles:   []Profile{ProfileC},
		CoreCounts: []int{4, 8, 32},
		Runs:       2,
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := panels[0]
	// HPMMAP beats THP at 32 ranks.
	if imp := Fig8Improvement(p, 32); imp <= 0 {
		t.Errorf("HPMMAP improvement at 32 ranks: %.1f%%", 100*imp)
	}
	// 1 -> 2 nodes adds the network: both managers slow down.
	for _, s := range p.Series {
		var r4, r8 float64
		for _, pt := range s.Points {
			if pt.Cores == 4 {
				r4 = pt.MeanSec
			}
			if pt.Cores == 8 {
				r8 = pt.MeanSec
			}
		}
		if r8 <= r4 {
			t.Errorf("%s: no 1->2 node network penalty (%.1f -> %.1f)", s.Kind, r4, r8)
		}
	}
}

func TestExecuteClusterValidation(t *testing.T) {
	spec, _ := workload.ByName("HPCCG")
	if _, err := ExecuteCluster(SingleRun{Bench: spec, Kind: THP, Profile: ProfileC, Ranks: 5, Seed: 1, Scale: 0.25}); err == nil {
		t.Fatal("non-multiple-of-4 ranks accepted")
	}
	if _, err := ExecuteCluster(SingleRun{Bench: spec, Kind: THP, Profile: ProfileC, Ranks: 4, Seed: 1, Scale: 0.25, Audit: true}); err == nil {
		t.Fatal("a cluster run asking for the single-node auditor accepted")
	}
	delay := func(iter, rank int) sim.Cycles { return 0 }
	if _, err := ExecuteCluster(SingleRun{Bench: spec, Kind: THP, Profile: ProfileC, Ranks: 4, Seed: 1, Scale: 0.25, CommDelay: delay}); err == nil {
		t.Fatal("a cluster run asking for a comm-delay hook accepted")
	}
}

func TestScaleSpecReducesWork(t *testing.T) {
	spec, _ := workload.ByName("miniMD")
	small := scaleSpec(spec, 0.1)
	if small.FootprintPerRank >= spec.FootprintPerRank {
		t.Fatal("scale did not shrink footprint")
	}
	if small.Iterations >= spec.Iterations {
		t.Fatal("scale did not shrink iterations")
	}
	same := scaleSpec(spec, 1)
	if same.FootprintPerRank != spec.FootprintPerRank {
		t.Fatal("scale 1 changed the spec")
	}
}

func TestManagerAndProfileStrings(t *testing.T) {
	if THP.String() == "?" || HugeTLBfs.String() == "?" || HPMMAP.String() == "?" {
		t.Fatal("manager names")
	}
	if ProfileA.String() != "A" || ProfileD.String() != "D" {
		t.Fatal("profile names")
	}
	if Profile(7).String() != "?" || Profile(-1).String() != "?" {
		t.Fatal("an out-of-range profile must print as ?")
	}
}

func TestModelOverridesApply(t *testing.T) {
	spec, _ := workload.ByName("miniFE")
	base, err := ExecuteSingleNode(SingleRun{
		Bench: spec, Kind: THP, Profile: ProfileA, Ranks: 2, Seed: 5, Scale: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow := 40.0
	slowed, err := ExecuteSingleNode(SingleRun{
		Bench: spec, Kind: THP, Profile: ProfileA, Ranks: 2, Seed: 5, Scale: 0.25,
		Overrides: ModelOverrides{StoreCycles: &slow},
	})
	if err != nil {
		t.Fatal(err)
	}
	if slowed.RuntimeSec <= base.RuntimeSec {
		t.Fatalf("4x clear cost did not slow the run: %.2f vs %.2f", slowed.RuntimeSec, base.RuntimeSec)
	}
	lat := 500.0
	slower, err := ExecuteSingleNode(SingleRun{
		Bench: spec, Kind: THP, Profile: ProfileA, Ranks: 2, Seed: 5, Scale: 0.25,
		Overrides: ModelOverrides{MemLatency: &lat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if slower.RuntimeSec <= base.RuntimeSec {
		t.Fatalf("3x memory latency did not slow the run: %.2f vs %.2f", slower.RuntimeSec, base.RuntimeSec)
	}
}

// TestFidelityModesAgree runs the same cell at micro (per-fault, real
// page tables) and macro (aggregated) fidelity: the two paths share one
// cost model and must produce runtimes within a tight band of each other.
func TestFidelityModesAgree(t *testing.T) {
	spec, _ := workload.ByName("HPCCG")
	run := func(detail bool) float64 {
		out, err := ExecuteSingleNode(SingleRun{
			Bench: spec, Kind: THP, Profile: ProfileA, Ranks: 2, Seed: 77,
			Scale: 0.5, Detail: detail,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.RuntimeSec
	}
	macro := run(false)
	micro := run(true)
	ratio := micro / macro
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("fidelity modes diverge: micro %.1fs vs macro %.1fs (ratio %.3f)", micro, macro, ratio)
	}
}

func TestNoiseAmplification(t *testing.T) {
	points, err := NoiseStudy(NoiseStudyOptions{
		Prob:           0.2,
		DurationCycles: 200_000_000, // 91ms detours: above the natural jitter
		RankCounts:     []int{1, 8},
		Seed:           5,
		Scale:          0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	one, eight := points[0], points[1]
	if one.SlowdownSec <= 0 || eight.SlowdownSec <= 0 {
		t.Fatalf("noise cost not positive: %+v %+v", one, eight)
	}
	// Bulk-synchronous amplification: at p=0.2, 8 ranks stall an
	// iteration with probability 1-(0.8)^8 ≈ 0.83 — roughly 4x the
	// single-rank exposure.
	if eight.SlowdownSec < 2*one.SlowdownSec {
		t.Fatalf("no amplification: 1 rank %.2fs vs 8 ranks %.2fs", one.SlowdownSec, eight.SlowdownSec)
	}
	if s := WriteNoiseStudy(points); len(s) == 0 {
		t.Fatal("empty render")
	}
}

// TestTwoRegisteredAppsShareThePool runs two independently registered HPC
// applications concurrently on one HPMMAP node: both must complete with
// zero faults from one offlined pool — the paper's "dynamically partition
// a node's physical memory" claim.
func TestTwoRegisteredAppsShareThePool(t *testing.T) {
	rig, err := Boot(kernel.DellR415(), sim.NewEngine(), 3, HPMMAP, false, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := scaleSpec(mustSpec(t, "HPCCG"), 0.2)
	launch := rig.Launcher()
	results := make([]workload.Result, 2)
	done := 0
	for i := 0; i < 2; i++ {
		i := i
		cores := []int{i, 6 + i} // interleave the two apps across zones
		var pls []workload.RankPlacement
		for _, c := range cores {
			pls = append(pls, workload.RankPlacement{Node: rig.Node, Core: c, Launch: launch})
		}
		if _, err := workload.Start(rig.Eng, workload.Options{Spec: spec, Ranks: pls},
			func(got workload.Result) { results[i] = got; done++ }); err != nil {
			t.Fatal(err)
		}
	}
	for done < 2 && rig.Eng.Step() {
	}
	if done != 2 {
		t.Fatal("apps did not complete")
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("app %d: %v", i, res.Err)
		}
		for _, rr := range res.Ranks {
			if rr.Faults.TotalFaults() != 0 {
				t.Fatalf("app %d faulted: %+v", i, rr.Faults)
			}
		}
	}
	// All pool memory is back.
	if rig.HP.PoolFreeBytes() != rig.HP.PoolTotalBytes() {
		t.Fatalf("pool leaked: %d of %d free", rig.HP.PoolFreeBytes(), rig.HP.PoolTotalBytes())
	}
}

func mustSpec(t *testing.T, name string) workload.AppSpec {
	t.Helper()
	s, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	return s
}

// Quick plumbing coverage for the sweep runners (full-scale shape checks
// live above, skipped with -short).
func TestFig7QuickPath(t *testing.T) {
	panels, err := Fig7(Fig7Options{
		Benches:    []string{"miniFE"},
		Profiles:   []Profile{ProfileA},
		CoreCounts: []int{2},
		Runs:       2,
		Seed:       3,
		Scale:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 1 || len(panels[0].Series) != 3 {
		t.Fatalf("panels: %+v", panels)
	}
	for _, s := range panels[0].Series {
		if len(s.Points) != 1 || s.Points[0].MeanSec <= 0 {
			t.Fatalf("series %s: %+v", s.Kind, s.Points)
		}
	}
	if _, err := Fig7(Fig7Options{Benches: []string{"bogus"}, Scale: 0.25}); err == nil {
		t.Fatal("bogus bench accepted")
	}
}

func TestFig8QuickPath(t *testing.T) {
	panels, err := Fig8(Fig7Options{
		Benches:    []string{"LAMMPS"},
		Profiles:   []Profile{ProfileC},
		CoreCounts: []int{4},
		Runs:       1,
		Seed:       3,
		Scale:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 1 || len(panels[0].Series) != 2 {
		t.Fatalf("panels: %+v", panels)
	}
	if _, err := Fig8(Fig7Options{Benches: []string{"bogus"}, Scale: 0.25}); err == nil {
		t.Fatal("bogus bench accepted")
	}
}

func TestFaultStudyQuickPath(t *testing.T) {
	fs, err := RunFaultStudy(FaultStudyOptions{Bench: "miniFE", Kind: THP, Ranks: 2, Seed: 4, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Rows) != 2 || fs.Rows[0].Recorder.Len() == 0 {
		t.Fatalf("study: %+v", fs)
	}
	if _, err := RunFaultStudy(FaultStudyOptions{Bench: "bogus", Scale: 0.25}); err == nil {
		t.Fatal("bogus bench accepted")
	}
	// Fig5 plumbing at reduced scale.
	tls, err := Fig5(FaultStudyOptions{Seed: 4, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tls) != 6 {
		t.Fatalf("fig5 panels: %d", len(tls))
	}
}
