package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"hpmmap/internal/fault"
	"hpmmap/internal/sim"
)

// flatRecorder is the Recorder the chunked one replaced, kept as its
// reference: one slice that append regrows, and every method as it was.
type flatRecorder struct {
	records []fault.Record
}

func (r *flatRecorder) Record(rec fault.Record) { r.records = append(r.records, rec) }

func (r *flatRecorder) Records() []fault.Record {
	out := make([]fault.Record, len(r.records))
	copy(out, r.records)
	return out
}

func (r *flatRecorder) Each(fn func(fault.Record)) {
	for _, rec := range r.records {
		fn(rec)
	}
}

func (r *flatRecorder) Len() int { return len(r.records) }

func (r *flatRecorder) Summarize() []KindSummary {
	type agg struct {
		n        uint64
		sum, ssq float64
		max      sim.Cycles
	}
	var a [fault.NumKinds]agg
	for _, rec := range r.records {
		x := &a[rec.Kind]
		x.n++
		v := float64(rec.Cost)
		x.sum += v
		x.ssq += v * v
		if rec.Cost > x.max {
			x.max = rec.Cost
		}
	}
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

func (r *flatRecorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "at_cycles,cost_cycles,kind,pid,stalled"); err != nil {
		return err
	}
	for _, rec := range r.records {
		if _, err := fmt.Fprintf(w, "%d,%d,%s,%d,%t\n", rec.At, rec.Cost, rec.Kind, rec.PID, rec.Stalls); err != nil {
			return err
		}
	}
	return nil
}

func (r *flatRecorder) Scatter(width, height int, logY bool) string {
	if len(r.records) == 0 {
		return "(no faults)\n"
	}
	if width < 10 {
		width = 10
	}
	if height < 4 {
		height = 4
	}
	minT, maxT := r.records[0].At, r.records[0].At
	var maxC sim.Cycles = 1
	for _, rec := range r.records {
		if rec.At < minT {
			minT = rec.At
		}
		if rec.At > maxT {
			maxT = rec.At
		}
		if rec.Cost > maxC {
			maxC = rec.Cost
		}
	}
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
		for _, rec := range r.records {
			if rec.Kind != k {
				continue
			}
			x := int(float64(rec.At-minT) / span * float64(width))
			if x >= width {
				x = width - 1
			}
			grid[yOf(rec.Cost)][x] = glyph[k]
		}
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

func (r *flatRecorder) Histogram(k fault.Kind, buckets, width int) string {
	if buckets < 2 {
		buckets = 2
	}
	var costs []float64
	for _, rec := range r.records {
		if rec.Kind == k {
			costs = append(costs, float64(rec.Cost))
		}
	}
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

// variedRecords returns n records of every kind, with costs over six
// decades, times that are not monotone, and some stalls.
func variedRecords(r *sim.Rand, n int) []fault.Record {
	out := make([]fault.Record, n)
	for i := range out {
		out[i] = fault.Record{
			At:     sim.Cycles(r.Uint64n(1 << 30)),
			Cost:   sim.Cycles(1 + r.Uint64n(1<<uint(4+r.Intn(20)))),
			Kind:   fault.Kind(r.Intn(fault.NumKinds)),
			PID:    100 + r.Intn(3),
			VA:     r.Uint64(),
			Stalls: r.Bool(0.1),
		}
	}
	return out
}

// checkSameRecorder fails unless got and want report the same records
// through every method.
func checkSameRecorder(t *testing.T, label string, got *Recorder, want *flatRecorder) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, flat %d", label, got.Len(), want.Len())
	}
	recs := got.Records()
	if !slices.Equal(recs, want.Records()) {
		t.Fatalf("%s: Records differ from the flat slice", label)
	}
	var each []fault.Record
	got.Each(func(rec fault.Record) { each = append(each, rec) })
	if !slices.Equal(each, want.records) {
		t.Fatalf("%s: Each visits %d records, not the flat slice's %d in order", label, len(each), want.Len())
	}
	if s, ws := got.Summarize(), want.Summarize(); !reflect.DeepEqual(s, ws) {
		t.Fatalf("%s: Summarize %+v, flat %+v", label, s, ws)
	}
	var gb, wb bytes.Buffer
	if err := got.WriteCSV(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteCSV(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: WriteCSV differs from the flat slice's", label)
	}
	for _, logY := range []bool{false, true} {
		if s, ws := got.Scatter(50, 9, logY), want.Scatter(50, 9, logY); s != ws {
			t.Fatalf("%s: Scatter(log %v)\n%s\nflat\n%s", label, logY, s, ws)
		}
	}
	for k := fault.Kind(0); k < fault.Kind(fault.NumKinds); k++ {
		if h, wh := got.Histogram(k, 14, 60), want.Histogram(k, 14, 60); h != wh {
			t.Fatalf("%s: Histogram(%s)\n%s\nflat\n%s", label, k, h, wh)
		}
	}
}

// TestChunkedRecorderMatchesFlat fills a recorder and the flat reference
// with the same records, at counts on both sides of a chunk boundary,
// then appends a different count to both, comparing every method after
// each stage.
func TestChunkedRecorderMatchesFlat(t *testing.T) {
	counts := []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 7}
	r := sim.NewRand(0x7ace)
	for _, n := range counts {
		for _, m := range counts {
			got, want := NewRecorder(), &flatRecorder{}
			for _, rec := range variedRecords(r, n) {
				got.Record(rec)
				want.Record(rec)
			}
			checkSameRecorder(t, fmt.Sprintf("%d records", n), got, want)
			for _, rec := range variedRecords(r, m) {
				got.Record(rec)
				want.Record(rec)
			}
			checkSameRecorder(t, fmt.Sprintf("%d records, then %d", n, m), got, want)
		}
	}
}
