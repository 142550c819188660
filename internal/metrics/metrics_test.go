package metrics

import (
	"math"
	"math/bits"
	"strings"
	"testing"
)

// TestBucketBounds pins the fixed log2 bucket layout documented in
// OBSERVABILITY.md: bucket 0 holds exactly 0, bucket i holds
// [2^(i-1), 2^i - 1], and the last bucket tops out at MaxUint64.
func TestBucketBounds(t *testing.T) {
	cases := []struct {
		i      int
		lo, hi uint64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 4, 7},
		{10, 512, 1023},
		{63, 1 << 62, 1<<63 - 1},
		{64, 1 << 63, math.MaxUint64},
	}
	for _, c := range cases {
		lo, hi := BucketBounds(c.i)
		if lo != c.lo || hi != c.hi {
			t.Errorf("BucketBounds(%d) = [%d, %d], want [%d, %d]", c.i, lo, hi, c.lo, c.hi)
		}
	}
}

// TestHistogramBucketBoundaries drives observations at every power-of-two
// boundary and checks each lands in the bucket whose bounds contain it.
func TestHistogramBucketBoundaries(t *testing.T) {
	var values []uint64
	values = append(values, 0, math.MaxUint64)
	for s := 0; s < 64; s++ {
		v := uint64(1) << s
		values = append(values, v, v-1, v+1)
	}
	h := &Histogram{}
	for _, v := range values {
		h.Observe(v)
	}
	if got, want := h.Count(), uint64(len(values)); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	// Rebuild the expected per-bucket counts from the documented rule.
	var want [NumBuckets]uint64
	for _, v := range values {
		want[bits.Len64(v)]++
	}
	for i, c := range h.buckets {
		if c != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, c, want[i])
		}
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		for _, v := range values {
			if bits.Len64(v) == i && (v < lo || v > hi) {
				t.Errorf("value %d bucketed into %d but outside its bounds [%d, %d]", v, i, lo, hi)
			}
		}
	}
	// The snapshot view must agree with the raw buckets and bounds.
	r := NewRegistry()
	sh := r.Histogram("test_snapshot_cycles")
	for _, v := range values {
		sh.Observe(v)
	}
	m, ok := r.Snapshot().Get("test_snapshot_cycles")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	var total uint64
	for _, b := range m.Buckets {
		if b.Lo > b.Hi {
			t.Errorf("bucket [%d, %d] inverted", b.Lo, b.Hi)
		}
		total += b.Count
	}
	if total != m.Count {
		t.Errorf("bucket counts sum to %d, Count = %d", total, m.Count)
	}
}

// TestNilHandlesAreNoOps pins the package's central contract: every
// handle type accepts calls on a nil receiver.
func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Error("nil Counter.Value != 0")
	}
	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil Histogram not empty")
	}
	var r *Registry
	if r.Counter("x_total") != nil || r.Histogram("x_cycles") != nil {
		t.Error("nil Registry accessors must return nil handles")
	}
	r.CounterFunc("x_total", func() uint64 { return 1 })
	r.GaugeFunc("x_bytes", func() float64 { return 1 })
	if len(r.Snapshot().Metrics) != 0 {
		t.Error("nil Registry snapshot not empty")
	}
	var tr *ChromeTracer
	tr.SetClock(1e9)
	tr.SetProcessName("p")
	tr.SetThreadName(0, "t")
	tr.Complete(0, "c", "n", 0, 1)
	tr.Instant(0, "c", "n", 0)
	tr.Value(0, "c", "n", 0, 1)
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("dual_use_total")
	r.GaugeFunc("dual_use_total", func() float64 { return 0 })
}

func TestValidateName(t *testing.T) {
	for _, ok := range []string{"a", "fault_small_faults_total", "x2_total"} {
		if err := ValidateName(ok); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "Fault_total", "_x", "2x", "a-b", "a.b"} {
		if err := ValidateName(bad); err == nil {
			t.Errorf("ValidateName(%q) = nil, want error", bad)
		}
	}
}

// TestAdditivePullRegistration pins the multi-zone / multi-node
// aggregation semantics: same-name pull sources sum at snapshot time,
// and a push handle adds on top.
func TestAdditivePullRegistration(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("zone_allocs_total", func() uint64 { return 10 })
	r.CounterFunc("zone_allocs_total", func() uint64 { return 32 })
	r.Counter("zone_allocs_total").Add(100)
	r.GaugeFunc("zone_free_bytes", func() float64 { return 1.5 })
	r.GaugeFunc("zone_free_bytes", func() float64 { return 2.5 })
	s := r.Snapshot()
	if got := s.CounterValue("zone_allocs_total"); got != 142 {
		t.Errorf("additive counter = %d, want 142", got)
	}
	if m, _ := s.Get("zone_free_bytes"); m.Value != 4 {
		t.Errorf("additive gauge = %v, want 4", m.Value)
	}
}

func TestMerge(t *testing.T) {
	mk := func(cv uint64, hist []uint64) Snapshot {
		r := NewRegistry()
		r.Counter("m_total").Add(cv)
		h := r.Histogram("m_cycles")
		for _, v := range hist {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	a := mk(3, []uint64{1, 100})
	b := mk(4, []uint64{100, 1 << 40})
	m := Merge(a, b)
	if got := m.CounterValue("m_total"); got != 7 {
		t.Errorf("merged counter = %d, want 7", got)
	}
	h, ok := m.Get("m_cycles")
	if !ok || h.Count != 4 || h.Sum != 1+100+100+1<<40 {
		t.Errorf("merged histogram count/sum = %d/%d", h.Count, h.Sum)
	}
	var total uint64
	for _, bk := range h.Buckets {
		total += bk.Count
	}
	if total != 4 {
		t.Errorf("merged buckets sum to %d, want 4", total)
	}
	// Merging must preserve name ordering.
	for i := 1; i < len(m.Metrics); i++ {
		if m.Metrics[i-1].Name >= m.Metrics[i].Name {
			t.Errorf("merged snapshot unsorted: %q >= %q", m.Metrics[i-1].Name, m.Metrics[i].Name)
		}
	}
}

// TestMergeGaugeModes: additive gauges sum across cells, MergeMax
// gauges (ratio/pressure-style) take the worst cell, and the mode is
// stamped into snapshots and survives the merge.
func TestMergeGaugeModes(t *testing.T) {
	mk := func(pressure, bytes float64) Snapshot {
		r := NewRegistry()
		r.GaugeFunc(KernelCommitPressure, func() float64 { return pressure })
		r.GaugeFunc("zone_free_bytes", func() float64 { return bytes })
		return r.Snapshot()
	}
	a, b := mk(0.9, 100), mk(0.4, 50)
	if m, _ := a.Get(KernelCommitPressure); m.MergeMode != MergeMax {
		t.Fatalf("snapshot did not stamp merge mode: %q", m.MergeMode)
	}
	if m, _ := a.Get("zone_free_bytes"); m.MergeMode != MergeSum {
		t.Fatalf("additive gauge stamped %q, want empty", m.MergeMode)
	}
	merged := Merge(a, b)
	if m, _ := merged.Get(KernelCommitPressure); m.Value != 0.9 {
		t.Errorf("max-merged pressure = %v, want 0.9", m.Value)
	}
	if m, _ := merged.Get(KernelCommitPressure); m.MergeMode != MergeMax {
		t.Errorf("merge dropped the mode stamp")
	}
	if m, _ := merged.Get("zone_free_bytes"); m.Value != 150 {
		t.Errorf("sum-merged bytes = %v, want 150", m.Value)
	}
}

// TestMergeGaugeModeFallback: snapshots cached before the MergeMode
// field existed carry no stamp; Merge must fall back to the
// GaugeMergeModes table by name so old cache entries still merge as max.
func TestMergeGaugeModeFallback(t *testing.T) {
	unstamped := func(v float64) Snapshot {
		return Snapshot{Metrics: []Metric{{Name: KernelCommitPressure, Kind: KindGauge, Value: v}}}
	}
	m := Merge(unstamped(0.7), unstamped(0.2))
	got, _ := m.Get(KernelCommitPressure)
	if got.Value != 0.7 {
		t.Errorf("fallback max-merge = %v, want 0.7", got.Value)
	}
	if got.MergeMode != MergeMax {
		t.Errorf("fallback did not stamp the output: %q", got.MergeMode)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(5)
	r.GaugeFunc("b_ratio", func() float64 { return 0.25 })
	h := r.Histogram("c_cycles")
	h.Observe(1)
	h.Observe(2)
	var b strings.Builder
	if err := r.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE a_total counter\n" +
		"a_total 5\n" +
		"# TYPE b_ratio gauge\n" +
		"b_ratio 0.250000\n" +
		"# TYPE c_cycles histogram\n" +
		"c_cycles_bucket{le=\"1\"} 1\n" +
		"c_cycles_bucket{le=\"3\"} 2\n" +
		"c_cycles_sum 3\nc_cycles_count 2\n"
	if b.String() != want {
		t.Errorf("WriteText:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestUninstrumentedPathAllocates0 asserts the no-op contract with
// testing.AllocsPerRun: the exact call pattern of the fault hot path —
// nil counter increments, nil histogram observation, nil tracer event —
// performs zero allocations.
func TestUninstrumentedPathAllocates0(t *testing.T) {
	var (
		c  *Counter
		h  *Histogram
		tr *ChromeTracer
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(1768)
		tr.Complete(1, "fault", "small", 100, 1768)
		tr.Instant(0, "kernel", "kswapd", 100)
	})
	if allocs != 0 {
		t.Fatalf("uninstrumented hot path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkUninstrumentedFault measures the no-op fast path referenced
// by OBSERVABILITY.md: the per-fault instrumentation pattern against
// nil handles. Must report 0 B/op.
func BenchmarkUninstrumentedFault(b *testing.B) {
	var (
		c  *Counter
		h  *Histogram
		tr *ChromeTracer
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(uint64(i))
		tr.Complete(1, "fault", "small", uint64(i), 1768)
	}
}

// BenchmarkInstrumentedFault is the companion: the same pattern against
// live handles (counter add + histogram bucket). Observation itself is
// allocation-free; only the tracer's event append amortizes slice growth.
func BenchmarkInstrumentedFault(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("fault_small_faults_total")
	h := r.Histogram("fault_small_cycles")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(uint64(i))
	}
}
