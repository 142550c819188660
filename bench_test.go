package hpmmap

// One benchmark per table and figure in the paper's evaluation. Each
// regenerates its artifact through the experiment harness and reports the
// headline quantities as custom metrics, so `go test -bench .` produces a
// machine-readable reproduction summary. Absolute numbers come from the
// simulator's calibrated cost model; the shapes (who wins, by what
// factor, where the crossovers fall) are the reproduction targets — see
// EXPERIMENTS.md for paper-versus-measured.

import (
	"fmt"
	"testing"

	"hpmmap/internal/experiments"
	"hpmmap/internal/fault"
)

// BenchmarkFig2THPFaults regenerates Figure 2: THP fault-handling cycles
// for miniMD with and without a competing kernel build.
func BenchmarkFig2THPFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs, err := experiments.Fig2(experiments.FaultStudyOptions{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		report := func(row experiments.FaultStudyRow, suffix string) {
			if s, ok := experiments.SummaryFor(row, fault.KindSmall); ok {
				b.ReportMetric(s.AvgCycles, "small-cyc"+suffix)
			}
			if s, ok := experiments.SummaryFor(row, fault.KindLarge); ok {
				b.ReportMetric(s.AvgCycles, "large-cyc"+suffix)
			}
			if s, ok := experiments.SummaryFor(row, fault.KindMergeBlocked); ok {
				b.ReportMetric(s.AvgCycles, "merge-cyc"+suffix)
			}
		}
		report(fs.Rows[0], "")
		report(fs.Rows[1], "-loaded")
	}
}

// BenchmarkFig3HugeTLBFaults regenerates Figure 3: HugeTLBfs fault costs.
func BenchmarkFig3HugeTLBFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs, err := experiments.Fig3(experiments.FaultStudyOptions{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := experiments.SummaryFor(fs.Rows[0], fault.KindHugeTLBLarge); ok {
			b.ReportMetric(s.AvgCycles, "hugetlb-large-cyc")
		}
		if s, ok := experiments.SummaryFor(fs.Rows[1], fault.KindHugeTLBSmall); ok {
			b.ReportMetric(s.AvgCycles, "hugetlb-small-cyc-loaded")
			b.ReportMetric(s.StdevCycles, "hugetlb-small-stdev-loaded")
		}
	}
}

// BenchmarkFig4THPTimeline regenerates Figure 4: the THP fault timeline
// for miniMD (four panels), reporting the fault population sizes.
func BenchmarkFig4THPTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tls, err := experiments.Fig4(experiments.FaultStudyOptions{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tls[0].Recorder.Len()), "faults-noload")
		b.ReportMetric(float64(tls[1].Recorder.Len()), "faults-loaded")
	}
}

// BenchmarkFig5HugeTLBTimeline regenerates Figure 5: HugeTLBfs fault
// timelines for HPCCG, CoMD and miniFE with and without competition.
func BenchmarkFig5HugeTLBTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tls, err := experiments.Fig5(experiments.FaultStudyOptions{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		for _, tl := range tls {
			total += float64(tl.Recorder.Len())
		}
		b.ReportMetric(total/float64(len(tls)), "faults-per-panel")
	}
}

// BenchmarkFig7SingleNode regenerates the 8-core column of every Figure 7
// panel: four benchmarks x two commodity profiles x three managers.
func BenchmarkFig7SingleNode(b *testing.B) {
	for _, bench := range []string{"HPCCG", "CoMD", "miniMD", "miniFE"} {
		for _, prof := range []experiments.Profile{experiments.ProfileA, experiments.ProfileB} {
			b.Run(fmt.Sprintf("%s/profile%s", bench, prof), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					panels, err := experiments.Fig7(experiments.Fig7Options{
						Benches:    []string{bench},
						Profiles:   []experiments.Profile{prof},
						CoreCounts: []int{8},
						Runs:       1,
						Seed:       uint64(i) + 101,
					})
					if err != nil {
						b.Fatal(err)
					}
					hp := panels[0].Series[0].Points[0].MeanSec
					th := panels[0].Series[1].Points[0].MeanSec
					ht := panels[0].Series[2].Points[0].MeanSec
					b.ReportMetric(hp, "hpmmap-sec")
					b.ReportMetric(th, "thp-sec")
					b.ReportMetric(ht, "hugetlbfs-sec")
					b.ReportMetric(100*(th-hp)/th, "vs-thp-%")
					b.ReportMetric(100*(ht-hp)/ht, "vs-hugetlbfs-%")
				}
			})
		}
	}
}

// BenchmarkFig8Scaling regenerates the 32-rank column of Figure 8: three
// benchmarks x two per-node profiles, HPMMAP versus THP on 8 nodes.
func BenchmarkFig8Scaling(b *testing.B) {
	for _, bench := range []string{"HPCCG", "miniFE", "LAMMPS"} {
		for _, prof := range []experiments.Profile{experiments.ProfileC, experiments.ProfileD} {
			b.Run(fmt.Sprintf("%s/profile%s", bench, prof), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					panels, err := experiments.Fig8(experiments.Fig7Options{
						Benches:    []string{bench},
						Profiles:   []experiments.Profile{prof},
						CoreCounts: []int{32},
						Runs:       1,
						Seed:       uint64(i) + 301,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(panels[0].Series[0].Points[0].MeanSec, "hpmmap-sec")
					b.ReportMetric(panels[0].Series[1].Points[0].MeanSec, "thp-sec")
					b.ReportMetric(100*experiments.Fig8Improvement(panels[0], 32), "vs-thp-%")
				}
			})
		}
	}
}

// BenchmarkAblationEagerMapping isolates HPMMAP's on-request allocation
// cost: the one place the lightweight design pays up front.
func BenchmarkAblationEagerMapping(b *testing.B) {
	sys, err := New(Config{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	p, err := sys.LaunchHPC("bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		addr, cost, err := p.Mmap(64 << 20)
		if err != nil {
			b.Fatal(err)
		}
		cycles += cost
		if err := p.Munmap(addr, 64<<20); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/map64MB")
}

// BenchmarkAblationDemandPaging is the Linux counterpart: mmap is nearly
// free but the touch pays the fault path.
func BenchmarkAblationDemandPaging(b *testing.B) {
	sys, err := New(Config{Manager: ManagerTHP, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	p, err := sys.LaunchHPC("bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		addr, _, err := p.Mmap(64 << 20)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := p.Touch(addr, 64<<20)
		if err != nil {
			b.Fatal(err)
		}
		cycles += rep.Cycles
		if err := p.Munmap(addr, 64<<20); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/fault64MB")
}

// BenchmarkAblation1GPages compares HPMMAP's default 2MB mapping against
// the optional 1GB page mode (paper: "2MB by default, but up to 1GB where
// supported by hardware") on a 4GB region: fewer, bigger PT entries and
// one clear loop either way.
func BenchmarkAblation1GPages(b *testing.B) {
	for _, use1g := range []bool{false, true} {
		name := "2MB"
		if use1g {
			name = "1GB"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				sys, err := New(Config{Seed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				sys.SetUse1GPages(use1g)
				p, err := sys.LaunchHPC("bench")
				if err != nil {
					b.Fatal(err)
				}
				_, cost, err := p.Mmap(4 << 30)
				if err != nil {
					b.Fatal(err)
				}
				cycles += cost
				p.Exit()
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/map4GB")
		})
	}
}
