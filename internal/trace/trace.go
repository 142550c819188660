// Package trace captures per-fault records during micro-level experiments
// and renders them as the paper's tables (Figures 2–3) and timeline
// scatter plots (Figures 4–5), in ASCII and CSV form.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"hpmmap/internal/fault"
	"hpmmap/internal/sim"
)

// chunkLen is the number of records in one of a Recorder's chunks: 48 KB
// of fault.Record.
const chunkLen = 1024

// Recorder accumulates fault records in completion order. It stores them
// in fixed-size chunks, so each record is written once and never copied
// by a regrowth.
type Recorder struct {
	chunks []*[chunkLen]fault.Record
	n      int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one fault.
//
//detsim:hotpath
func (r *Recorder) Record(rec fault.Record) {
	c := r.n / chunkLen
	if c == len(r.chunks) {
		//detsim:allow one chunk per chunkLen records: no record is ever copied
		r.chunks = append(r.chunks, new([chunkLen]fault.Record))
	}
	r.chunks[c][r.n%chunkLen] = rec
	r.n++
}

// Records returns a copy of the captured records, in completion order.
// Callers may sort, filter or mutate the returned slice freely without
// corrupting the recorder. For read-only scans without the copy, use
// Each.
func (r *Recorder) Records() []fault.Record {
	out := make([]fault.Record, 0, r.n)
	r.Each(func(rec fault.Record) { out = append(out, rec) })
	return out
}

// Each calls fn for every captured record in completion order, without
// copying. fn must not call Record on the same recorder.
func (r *Recorder) Each(fn func(fault.Record)) {
	for c, left := 0, r.n; left > 0; c, left = c+1, left-chunkLen {
		for _, rec := range r.chunks[c][:min(left, chunkLen)] {
			fn(rec)
		}
	}
}

// Len returns the number of captured faults.
func (r *Recorder) Len() int { return r.n }

// KindSummary is the per-kind statistics row of the paper's fault tables.
type KindSummary struct {
	Kind        fault.Kind
	Count       uint64
	AvgCycles   float64
	StdevCycles float64
	MaxCycles   sim.Cycles
}

// Summarize computes per-kind statistics over the recorded faults.
func (r *Recorder) Summarize() []KindSummary {
	type agg struct {
		n        uint64
		sum, ssq float64
		max      sim.Cycles
	}
	var a [fault.NumKinds]agg
	r.Each(func(rec fault.Record) {
		x := &a[rec.Kind]
		x.n++
		v := float64(rec.Cost)
		x.sum += v
		x.ssq += v * v
		if rec.Cost > x.max {
			x.max = rec.Cost
		}
	})
	var out []KindSummary
	for k := 0; k < fault.NumKinds; k++ {
		if a[k].n == 0 {
			continue
		}
		mean := a[k].sum / float64(a[k].n)
		variance := a[k].ssq/float64(a[k].n) - mean*mean
		if variance < 0 {
			variance = 0
		}
		out = append(out, KindSummary{
			Kind:        fault.Kind(k),
			Count:       a[k].n,
			AvgCycles:   mean,
			StdevCycles: math.Sqrt(variance),
			MaxCycles:   a[k].max,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// WriteCSV emits one line per fault: time_cycles,cost_cycles,kind,stalled.
func (r *Recorder) WriteCSV(w io.Writer) error {
	_, err := fmt.Fprintln(w, "at_cycles,cost_cycles,kind,pid,stalled")
	r.Each(func(rec fault.Record) {
		if err == nil {
			_, err = fmt.Fprintf(w, "%d,%d,%s,%d,%t\n", rec.At, rec.Cost, rec.Kind, rec.PID, rec.Stalls)
		}
	})
	return err
}

// Scatter renders an ASCII scatter plot of fault cost against time, the
// shape of the paper's Figures 4–5. Each kind gets its own glyph:
// '.' small, 'O' large, 'M' merge-blocked, 'H' hugetlb-large,
// 'h' hugetlb-small(reclaim), 's' stack.
func (r *Recorder) Scatter(width, height int, logY bool) string {
	if r.n == 0 {
		return "(no faults)\n"
	}
	if width < 10 {
		width = 10
	}
	if height < 4 {
		height = 4
	}
	minT, maxT := r.chunks[0][0].At, r.chunks[0][0].At
	var maxC sim.Cycles = 1
	r.Each(func(rec fault.Record) {
		if rec.At < minT {
			minT = rec.At
		}
		if rec.At > maxT {
			maxT = rec.At
		}
		if rec.Cost > maxC {
			maxC = rec.Cost
		}
	})
	span := float64(maxT-minT) + 1
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	yOf := func(c sim.Cycles) int {
		var frac float64
		if logY {
			frac = math.Log1p(float64(c)) / math.Log1p(float64(maxC))
		} else {
			frac = float64(c) / float64(maxC)
		}
		y := int(frac * float64(height-1))
		if y >= height {
			y = height - 1
		}
		return height - 1 - y
	}
	glyph := map[fault.Kind]byte{
		fault.KindSmall:        '.',
		fault.KindLarge:        'O',
		fault.KindMergeBlocked: 'M',
		fault.KindHugeTLBLarge: 'H',
		fault.KindHugeTLBSmall: 'h',
		fault.KindStackGrow:    's',
	}
	// Draw cheap kinds first so expensive outliers overwrite them.
	order := []fault.Kind{fault.KindSmall, fault.KindStackGrow, fault.KindHugeTLBSmall,
		fault.KindHugeTLBLarge, fault.KindLarge, fault.KindMergeBlocked}
	for _, k := range order {
		r.Each(func(rec fault.Record) {
			if rec.Kind != k {
				return
			}
			x := int(float64(rec.At-minT) / span * float64(width))
			if x >= width {
				x = width - 1
			}
			grid[yOf(rec.Cost)][x] = glyph[k]
		})
	}
	var b strings.Builder
	scale := "linear"
	if logY {
		scale = "log"
	}
	fmt.Fprintf(&b, "cycles (max %d, %s scale)\n", maxC, scale)
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("+" + strings.Repeat("-", width) + "> time\n")
	b.WriteString("  . small  O 2MB  M merge-blocked  H hugetlb-2MB  h hugetlb-4KB  s stack\n")
	return b.String()
}

// Histogram renders an ASCII log-scale histogram of fault costs for one
// kind — the distribution view behind the tables' stdev columns.
func (r *Recorder) Histogram(k fault.Kind, buckets, width int) string {
	if buckets < 2 {
		buckets = 2
	}
	var costs []float64
	r.Each(func(rec fault.Record) {
		if rec.Kind == k {
			costs = append(costs, float64(rec.Cost))
		}
	})
	if len(costs) == 0 {
		return fmt.Sprintf("(no %s faults)\n", k)
	}
	lo, hi := costs[0], costs[0]
	for _, c := range costs {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		hi = lo * 2
	}
	logLo, logHi := math.Log(lo), math.Log(hi)
	counts := make([]int, buckets)
	for _, c := range costs {
		if c < 1 {
			c = 1
		}
		i := int((math.Log(c) - logLo) / (logHi - logLo) * float64(buckets))
		if i >= buckets {
			i = buckets - 1
		}
		if i < 0 {
			i = 0
		}
		counts[i]++
	}
	max := 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s fault cost distribution (%d faults, log buckets)\n", k, len(costs))
	for i, c := range counts {
		lowEdge := math.Exp(logLo + (logHi-logLo)*float64(i)/float64(buckets))
		bar := int(float64(c) / float64(max) * float64(width))
		fmt.Fprintf(&b, "%12.0f |%s %d\n", lowEdge, strings.Repeat("#", bar), c)
	}
	return b.String()
}
