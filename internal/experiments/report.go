package experiments

import (
	"fmt"
	"io"

	"hpmmap/internal/fault"
	"hpmmap/internal/stats"
)

// WriteFaultStudy renders a Figure 2/3-style table.
func WriteFaultStudy(w io.Writer, fs FaultStudy) {
	fmt.Fprintf(w, "=== %s fault study: %s (rank 0) ===\n", fs.Kind, fs.Bench)
	fmt.Fprintf(w, "%-6s %-14s %10s %14s %14s\n", "Load", "Fault Size", "Total", "Avg Cycles", "Stdev Cycles")
	for _, row := range fs.Rows {
		load := "No"
		if row.Loaded {
			load = "Yes"
		}
		for _, s := range row.Summaries {
			fmt.Fprintf(w, "%-6s %-14s %10d %14.0f %14.0f\n", load, s.Kind, s.Count, s.AvgCycles, s.StdevCycles)
			load = ""
		}
	}
}

// paperFaultCosts are the paper's published Fig. 2–3 numbers (Section
// IV: miniMD, rank 0) per manager and fault kind, without and with a
// competing kernel build: the fault count, then the average and the
// standard deviation of its cost in cycles.
var paperFaultCosts = map[ManagerKind]map[fault.Kind][2][3]int{
	THP: {
		fault.KindSmall:        {{136004, 1768, 993}, {135987, 2206, 1444}},
		fault.KindLarge:        {{1060, 367675, 65663}, {1060, 757598, 61439}},
		fault.KindMergeBlocked: {{30, 1005412, 503422}, {45, 3360292, 4017001}},
	},
	HugeTLBfs: {
		fault.KindHugeTLBLarge: {{84, 735384, 458239}, {75, 615162, 225726}},
		fault.KindHugeTLBSmall: {{1310, 1350, 1683}, {1777, 475724, 16387888}},
	},
}

// WriteFaultStudyVsPaper renders a Figure 2/3 study as markdown rows
// beside the paper's published numbers, one row per measured fault
// kind; a kind the paper does not report reads 0 in the paper columns.
func WriteFaultStudyVsPaper(w io.Writer, fs FaultStudy) {
	fmt.Fprintln(w, "| Load | Fault | Paper count | Paper avg | Paper stdev | Measured count | Measured avg | Measured stdev |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for _, row := range fs.Rows {
		load, cond := "No", 0
		if row.Loaded {
			load, cond = "Yes", 1
		}
		for _, s := range row.Summaries {
			p := paperFaultCosts[fs.Kind][s.Kind][cond]
			fmt.Fprintf(w, "| %s | %s | %d | %d | %d | %d | %.0f | %.0f |\n",
				load, s.Kind, p[0], p[1], p[2], s.Count, s.AvgCycles, s.StdevCycles)
		}
	}
}

// WriteTimelines renders Figure 4/5-style scatter plots.
func WriteTimelines(w io.Writer, title string, tls []Timeline, width, height int) {
	fmt.Fprintf(w, "=== %s ===\n", title)
	for _, tl := range tls {
		fmt.Fprintf(w, "--- %s (%d faults) ---\n", tl.Title, tl.Recorder.Len())
		fmt.Fprint(w, tl.Recorder.Scatter(width, height, true))
	}
}

// WriteFig7 renders the single-node study as per-panel tables plus the
// paper's headline averages.
func WriteFig7(w io.Writer, panels []Fig7Panel) {
	for _, p := range panels {
		writePanel(w, "Figure 7", "Cores", p)
	}
	// Statistical resolution of the headline comparison at 8 cores.
	resolved, total := 0, 0
	for _, p := range panels {
		hp, ok1 := PointFor(panels, p.Bench, p.Profile, HPMMAP, 8)
		th, ok2 := PointFor(panels, p.Bench, p.Profile, THP, 8)
		if !ok1 || !ok2 || len(hp.Runs) < 2 || len(th.Runs) < 2 {
			continue
		}
		var sa, sb stats.Sample
		for _, v := range hp.Runs {
			sa.Add(v)
		}
		for _, v := range th.Runs {
			sb.Add(v)
		}
		total++
		if stats.Significant(&sa, &sb) {
			resolved++
		}
	}
	if total > 0 {
		fmt.Fprintf(w, "HPMMAP-vs-THP difference at 8 cores statistically resolved (Welch, ~99%%) in %d of %d panels\n", resolved, total)
	}
	a := filterPanels(panels, ProfileA)
	b := filterPanels(panels, ProfileB)
	if len(a) > 0 {
		fmt.Fprintf(w, "Profile A averages: HPMMAP vs THP %+.1f%%, vs HugeTLBfs %+.1f%%\n",
			100*MeanImprovement(a, HPMMAP, THP), 100*MeanImprovement(a, HPMMAP, HugeTLBfs))
	}
	if len(b) > 0 {
		fmt.Fprintf(w, "Profile B averages: HPMMAP vs THP %+.1f%%, vs HugeTLBfs %+.1f%%\n",
			100*MeanImprovement(b, HPMMAP, THP), 100*MeanImprovement(b, HPMMAP, HugeTLBfs))
	}
}

func filterPanels(panels []Fig7Panel, prof Profile) []Fig7Panel {
	var out []Fig7Panel
	for _, p := range panels {
		if p.Profile == prof {
			out = append(out, p)
		}
	}
	return out
}

// WriteFig8 renders the scaling study.
func WriteFig8(w io.Writer, panels []Fig7Panel) {
	for _, p := range panels {
		writePanel(w, "Figure 8", "Ranks", p)
		if imp := Fig8Improvement(p, 32); imp != 0 {
			fmt.Fprintf(w, "HPMMAP vs THP at 32 ranks: %+.1f%%\n", 100*imp)
		}
	}
}

// writePanel renders one weak-scaling panel as a table: a row per
// manager, a column per x-axis point (axis names it).
func writePanel(w io.Writer, fig, axis string, p Fig7Panel) {
	fmt.Fprintf(w, "=== %s: %s, commodity profile %s ===\n", fig, p.Bench, p.Profile)
	fmt.Fprintf(w, "%-22s", axis)
	if len(p.Series) > 0 {
		for _, pt := range p.Series[0].Points {
			fmt.Fprintf(w, " %14d", pt.Cores)
		}
	}
	fmt.Fprintln(w)
	for _, s := range p.Series {
		fmt.Fprintf(w, "%-22s", s.Kind.String())
		for _, pt := range s.Points {
			fmt.Fprintf(w, " %8.1f±%-5.1f", pt.MeanSec, pt.StdevSec)
		}
		fmt.Fprintln(w)
	}
}
