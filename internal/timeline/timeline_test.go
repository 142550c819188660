package timeline

import (
	"strings"
	"testing"

	"hpmmap/internal/fault"
	"hpmmap/internal/metrics"
	"hpmmap/internal/sim"
)

func TestCauseStringsUniqueAndStable(t *testing.T) {
	seen := make(map[string]Cause)
	for c := 0; c < NumCauses; c++ {
		s := Cause(c).String()
		if s == "?" || s == "" {
			t.Fatalf("cause %d has no name", c)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("causes %d and %d share name %q", prev, c, s)
		}
		seen[s] = Cause(c)
	}
	if Cause(NumCauses).String() != "?" {
		t.Fatalf("out-of-range cause should stringify as ?")
	}
	// Report-order anchors the docs and trace instants; pin a few.
	for want, c := range map[string]Cause{
		"fault_small":   CauseSmallFault,
		"reclaim_storm": CauseReclaimStorm,
		"mlock_split":   CauseMlockSplit,
		"sched_preempt": CauseSched,
		"comm_jitter":   CauseCommJitter,
	} {
		if got := c.String(); got != want {
			t.Errorf("cause %d = %q, want %q", c, got, want)
		}
	}
}

func TestFaultCauseCoversEveryKind(t *testing.T) {
	want := map[fault.Kind]Cause{
		fault.KindSmall:        CauseSmallFault,
		fault.KindLarge:        CauseLargeFault,
		fault.KindMergeBlocked: CauseMergeFault,
		fault.KindHugeTLBLarge: CauseHugeTLBLargeFault,
		fault.KindHugeTLBSmall: CauseHugeTLBSmallFault,
		fault.KindStackGrow:    CauseStackFault,
	}
	for k := 0; k < fault.NumKinds; k++ {
		c := FaultCause(fault.Kind(k))
		if w, ok := want[fault.Kind(k)]; ok && c != w {
			t.Errorf("FaultCause(%v) = %v, want %v", fault.Kind(k), c, w)
		}
	}
}

// total returns the account's all-causes lifetime total.
func (a *Account) total() int64 {
	if a == nil {
		return 0
	}
	var t int64
	for _, v := range a.cyc {
		t += v
	}
	return t
}

func TestAccountChargeWindowMark(t *testing.T) {
	var a Account
	a.Charge(CauseSmallFault, 100)
	a.Charge(CauseSmallFault, 50)
	a.ChargeSigned(CauseCommJitter, -30)
	a.Reattribute(CauseSmallFault, CauseReclaimStorm, 40)

	w := a.Window()
	if w[CauseSmallFault] != 110 {
		t.Errorf("small window = %d, want 110", w[CauseSmallFault])
	}
	if w[CauseReclaimStorm] != 40 {
		t.Errorf("storm window = %d, want 40", w[CauseReclaimStorm])
	}
	if w[CauseCommJitter] != -30 {
		t.Errorf("jitter window = %d, want -30", w[CauseCommJitter])
	}
	if got := a.total(); got != 120 {
		t.Errorf("total = %d, want 120", got)
	}

	a.Mark()
	if w := a.Window(); w != ([NumCauses]int64{}) {
		t.Errorf("window after Mark = %v, want zeroes", w)
	}
	a.Charge(CauseSched, 7)
	if w := a.Window(); w[CauseSched] != 7 {
		t.Errorf("post-mark window = %d, want 7", w[CauseSched])
	}
	// Total is lifetime, not windowed.
	if got := a.total(); got != 127 {
		t.Errorf("total = %d, want 127", got)
	}
}

func TestAccountNilSafe(t *testing.T) {
	var a *Account
	a.Charge(CauseSmallFault, 1)
	a.ChargeSigned(CauseCommJitter, -1)
	a.Reattribute(CauseSmallFault, CauseReclaimStorm, 1)
	a.Mark()
	if a.total() != 0 {
		t.Fatal("nil account total != 0")
	}
	if a.Window() != ([NumCauses]int64{}) {
		t.Fatal("nil account window != zeroes")
	}
}

// TestRecordBarrierDecomposition drives a synthetic 3-rank barrier:
// rank 2 arrives last after paying 400 extra cycles of reclaim storm,
// and the record must name reclaim_storm as the dominant cause with the
// right excess, lateness and total wait.
func TestRecordBarrierDecomposition(t *testing.T) {
	attr := NewAttribution(3)
	attr.Rank(0).Charge(CauseSmallFault, 100)
	attr.Rank(1).Charge(CauseSmallFault, 120)
	attr.Rank(2).Charge(CauseSmallFault, 100)
	attr.Rank(2).Charge(CauseReclaimStorm, 400)

	// Arrival order 0 (t=1000), 1 (t=1050), 2 (t=1500); release at 1500.
	rec := attr.RecordBarrier(1500, []int{0, 1, 2}, []sim.Cycles{1000, 1050, 1500})
	if rec.Straggler != 2 {
		t.Fatalf("straggler = %d, want 2", rec.Straggler)
	}
	if rec.Lateness != 500 {
		t.Fatalf("lateness = %d, want 500", rec.Lateness)
	}
	if want := uint64(500 + 450 + 0); rec.TotalWait != want {
		t.Fatalf("total wait = %d, want %d", rec.TotalWait, want)
	}
	if rec.Excess[CauseReclaimStorm] != 400 {
		t.Fatalf("storm excess = %d, want 400", rec.Excess[CauseReclaimStorm])
	}
	// The straggler's small-fault window equals the minimum (100), so no
	// small-fault excess.
	if rec.Excess[CauseSmallFault] != 0 {
		t.Fatalf("small excess = %d, want 0", rec.Excess[CauseSmallFault])
	}
	if dom, ok := rec.DominantCause(); !ok || dom != CauseReclaimStorm {
		t.Fatalf("dominant = %v/%v, want reclaim_storm", dom, ok)
	}
	if f := rec.ExplainedFraction(); f != 0.8 {
		t.Fatalf("explained = %v, want 0.8 (400/500)", f)
	}

	// Accounts were marked: an immediate second barrier is balanced.
	rec2 := attr.RecordBarrier(1600, []int{0, 1, 2}, []sim.Cycles{1600, 1600, 1600})
	if rec2.Lateness != 0 || rec2.TotalWait != 0 {
		t.Fatalf("second barrier lateness/wait = %d/%d, want 0/0", rec2.Lateness, rec2.TotalWait)
	}
	if _, ok := rec2.DominantCause(); ok {
		t.Fatal("balanced barrier reported a dominant cause")
	}

	s := attr.Summarize()
	if s.Barriers != 2 || s.TotalWait != attr.TotalWait() {
		t.Fatalf("summary barriers/wait = %d/%d", s.Barriers, s.TotalWait)
	}
	if s.CauseExcess[CauseReclaimStorm] != 400 || s.DominantCount[CauseReclaimStorm] != 1 {
		t.Fatalf("summary storm excess/dominant = %d/%d", s.CauseExcess[CauseReclaimStorm], s.DominantCount[CauseReclaimStorm])
	}
	if s.Balanced != 1 {
		t.Fatalf("balanced = %d, want 1", s.Balanced)
	}
	if s.StragglerCount[2] != 2 {
		t.Fatalf("rank-2 straggles = %d, want 2", s.StragglerCount[2])
	}
	var buf strings.Builder
	if err := s.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"barriers 2", "reclaim_storm", "(balanced)", "stragglers by rank: r0=0 r1=0 r2=2", "worst: barrier 0 rank 2 late 500 cycles"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestAttributionMetricsAndNilSafety: straggler metrics register only
// through Observe, and a nil attributor accepts the whole surface.
func TestAttributionMetricsAndNilSafety(t *testing.T) {
	attr := NewAttribution(2)
	reg := metrics.NewRegistry()
	attr.Observe(reg)
	attr.RecordBarrier(100, []int{0, 1}, []sim.Cycles{50, 100})
	attr.RecordBarrier(200, []int{0, 1}, []sim.Cycles{200, 200})
	var stragglers, count float64
	var sum uint64
	for _, m := range reg.Snapshot().Metrics {
		switch m.Name {
		case metrics.BSPStragglersTotal:
			stragglers = m.Value
		case metrics.BSPStragglerLatenessCycles:
			count, sum = float64(m.Count), m.Sum
		}
	}
	if stragglers != 1 {
		t.Fatalf("bsp_stragglers_total = %v, want 1 (one late, one balanced)", stragglers)
	}
	if count != 2 || sum != 50 {
		t.Fatalf("lateness histogram count/sum = %v/%d, want 2/50", count, sum)
	}

	var nilAttr *Attribution
	nilAttr.Observe(reg)
	if rec := nilAttr.RecordBarrier(1, []int{0}, []sim.Cycles{1}); rec.TotalWait != 0 {
		t.Fatal("nil attributor recorded a barrier")
	}
	if nilAttr.Rank(0) != nil || nilAttr.TotalWait() != 0 || nilAttr.Records() != nil {
		t.Fatal("nil attributor leaked state")
	}
	if s := nilAttr.Summarize(); s.Barriers != 0 {
		t.Fatal("nil attributor summarized barriers")
	}
	// Out-of-range rank is the no-op account.
	if NewAttribution(1).Rank(5) != nil {
		t.Fatal("out-of-range rank should be nil")
	}
}

func TestSeriesSamplesAndCSV(t *testing.T) {
	s := NewSeries()
	x := 0.0
	s.AddProbe(0, "mem_pressure", func() float64 { x += 0.5; return x })
	s.AddProbe(1, "kernel_pagecache_pages", func() float64 { return 42 })
	reg := metrics.NewRegistry()
	tr := metrics.NewChromeTracer(0)
	s.Observe(reg, tr)
	s.Sample(100)
	s.Sample(200)
	var buf strings.Builder
	if err := s.WriteCSV(&buf, "cellA"); err != nil {
		t.Fatal(err)
	}
	want := "cellA,0,100,mem_pressure,0.500000\n" +
		"cellA,1,100,kernel_pagecache_pages,42\n" +
		"cellA,0,200,mem_pressure,1\n" +
		"cellA,1,200,kernel_pagecache_pages,42\n"
	if buf.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", buf.String(), want)
	}
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == metrics.TimelineSamplesTotal && m.Value != 2 {
			t.Fatalf("timeline_samples_total = %v, want 2", m.Value)
		}
	}
	// Counter tracks: two samples x two probes.
	var trace strings.Builder
	if err := metrics.WriteChromeTrace(&trace, tr); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(trace.String(), `"ph":"C"`); got != 4 {
		t.Fatalf("counter events = %d, want 4\n%s", got, trace.String())
	}
	if !strings.Contains(trace.String(), "mem_pressure/node0") ||
		!strings.Contains(trace.String(), "kernel_pagecache_pages/node1") {
		t.Fatalf("counter track names missing:\n%s", trace.String())
	}

	var nilSeries *Series
	nilSeries.AddProbe(0, "x", func() float64 { return 0 })
	nilSeries.Observe(reg, tr)
	nilSeries.Sample(1)
	buf.Reset()
	if err := nilSeries.WriteCSV(&buf, "c"); err != nil || buf.Len() != 0 {
		t.Fatalf("nil series wrote %q, %v", buf.String(), err)
	}
}
