// Package metrics is the simulation-wide observability layer: a
// zero-allocation-on-hot-path metrics registry (counters, gauges and
// cycle histograms with fixed log2 buckets) plus a structured event
// tracer that emits Chrome trace-event JSON keyed by simulated cycles
// (see chrome.go).
//
// The design contract, documented in full in OBSERVABILITY.md at the
// repository root (the doc is the API — every shipped metric name lives
// in names.go and is cross-checked against the doc by contract_test.go):
//
//   - A nil *Registry is the no-op default. Registry accessors on a nil
//     receiver return nil handles, and every handle method (Counter.Add,
//     Histogram.Observe) is nil-safe, so uninstrumented hot paths pay
//     one predictable branch and zero allocations.
//   - Handles are obtained once at setup (Registry.Counter et al.) and
//     written with plain field arithmetic afterwards: no maps, no
//     interface calls, no allocation on the hot path.
//   - A Registry belongs to one simulation cell and is not safe for
//     concurrent use; the experiment runner gives every cell its own
//     registry and merges the resulting Snapshots afterwards, which is
//     how results stay byte-identical at any worker count.
//   - Pull-mode metrics (CounterFunc, GaugeFunc) read existing subsystem
//     tallies at Snapshot time, so instrumenting an already-counting
//     subsystem costs nothing at runtime. Registering the same pull name
//     repeatedly is additive: the snapshot sums all registered sources
//     (one buddy pool per NUMA zone, one node per cluster member).
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil *Counter is a no-op (the uninstrumented default).
type Counter struct {
	v uint64
}

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// NumBuckets is the fixed bucket count of every Histogram: bucket 0
// holds observations of exactly 0 and bucket i (1 ≤ i ≤ 64) holds
// observations v with 2^(i-1) ≤ v < 2^i — i.e. values bucketed by bit
// length, covering the full uint64 range with no configuration.
const NumBuckets = 65

// Histogram distributes uint64 observations (cycle costs, byte sizes)
// over fixed log2 buckets. Observing allocates nothing; the zero value
// is ready to use and a nil *Histogram is a no-op.
type Histogram struct {
	buckets [NumBuckets]uint64
	count   uint64
	sum     uint64
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Quantile returns an upper bound on the q-quantile (0 < q ≤ 1) of the
// observed values: the inclusive upper bound of the log2 bucket holding
// the ⌈q·count⌉-th smallest observation. Log2 buckets make this a
// factor-of-two estimate, which is exactly the resolution the tail
// tables need — p99 moving a bucket means the tail doubled. Returns 0
// on an empty (or nil) histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			_, hi := BucketBounds(i)
			return hi
		}
	}
	_, hi := BucketBounds(NumBuckets - 1)
	return hi
}

// BucketBounds returns the inclusive value range [lo, hi] of bucket i.
func BucketBounds(i int) (lo, hi uint64) {
	if i <= 0 {
		return 0, 0
	}
	if i >= 64 {
		return 1 << 63, ^uint64(0)
	}
	return 1 << (i - 1), 1<<i - 1
}

// Kind classifies a metric for rendering and merging.
type Kind string

// Metric kinds. Counters and gauges carry Value; histograms carry
// Count, Sum and Buckets.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// MergeMode selects how Merge folds one gauge across cell snapshots.
// Counters and histograms always sum; most gauges in this simulator are
// additive quantities (bytes, pages) and sum too, but ratio- and
// pressure-style gauges sum into nonsense — those take the max (the
// worst cell), which is the reading a capacity question actually wants.
type MergeMode string

// Gauge merge modes. The empty string is the additive default, so the
// field is omitted from JSON snapshots for the common case (and old
// cached snapshots, which predate the field, fall back to
// GaugeMergeModes by name).
const (
	MergeSum MergeMode = ""
	MergeMax MergeMode = "max"
)

// GaugeMergeModes is the canonical name → merge-mode table for gauges
// with a non-default mode. It is the source of truth at Snapshot time
// (the mode is stamped into the metric) and the fallback at Merge time
// for snapshots cached before the field existed. The OBSERVABILITY.md
// metric table annotates these rows with "merge: max"; the contract
// test cross-checks the two.
var GaugeMergeModes = map[string]MergeMode{
	BuddyFragRatio:       MergeMax,
	KernelCommitPressure: MergeMax,
	SimFinalCycles:       MergeMax,
}

// entry is one registered metric with its push handle and any pull
// sources registered under the same name.
type entry struct {
	name       string
	kind       Kind
	counter    *Counter
	hist       *Histogram
	counterFns []func() uint64
	gaugeFns   []func() float64
}

// Registry names and owns a simulation cell's metrics. Obtain handles
// once at setup and increment them on the hot path; call Snapshot after
// the run. A nil *Registry is the valid no-op default: accessors return
// nil handles and pull registration is discarded. Not safe for
// concurrent use — one registry per simulation cell.
type Registry struct {
	byName map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// lookup finds or creates the entry for name, panicking on a kind
// mismatch (a programming error the contract test would also catch).
func (r *Registry) lookup(name string, kind Kind) *entry {
	if err := ValidateName(name); err != nil {
		panic("metrics: " + err.Error())
	}
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, kind: kind}
	r.byName[name] = e
	return e
}

// ValidateName enforces the naming scheme of OBSERVABILITY.md:
// subsystem_name_unit in lower snake case.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z':
		case c == '_' && i > 0:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return fmt.Errorf("metric name %q violates the [a-z][a-z0-9_]* scheme", name)
		}
	}
	return nil
}

// Counter returns the push counter registered under name, creating it
// on first use. Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	e := r.lookup(name, KindCounter)
	if e.counter == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// Histogram returns the log2-bucket histogram registered under name,
// creating it on first use. Returns nil (a no-op handle) on a nil
// registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	e := r.lookup(name, KindHistogram)
	if e.hist == nil {
		e.hist = &Histogram{}
	}
	return e.hist
}

// CounterFunc registers a pull-mode counter source read at Snapshot
// time. Registering the same name repeatedly is additive (the snapshot
// sums all sources), which is how per-zone or per-node tallies
// aggregate under one metric. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	e := r.lookup(name, KindCounter)
	e.counterFns = append(e.counterFns, fn)
}

// GaugeFunc registers a pull-mode gauge source read at Snapshot time.
// Additive across repeated registrations, like CounterFunc. No-op on a
// nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	e := r.lookup(name, KindGauge)
	e.gaugeFns = append(e.gaugeFns, fn)
}

// Bucket is one non-empty histogram bucket of a Snapshot, with its
// inclusive value bounds.
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Metric is one metric's state inside a Snapshot.
type Metric struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Value carries the counter count (push handle plus all pull
	// sources) or the gauge reading (the sum of its pull sources).
	Value float64 `json:"value"`
	// Count, Sum and Buckets carry histogram state.
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
	// MergeMode records how Merge folds this gauge across cells
	// (omitted for the additive default; see GaugeMergeModes).
	MergeMode MergeMode `json:"merge,omitempty"`
}

// Snapshot is an immutable, JSON-serializable capture of a registry,
// sorted by metric name so output is deterministic.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures the registry's current state. Safe on a nil
// registry (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var s Snapshot
	for _, e := range r.byName {
		m := Metric{Name: e.name, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			v := e.counter.Value()
			for _, fn := range e.counterFns {
				v += fn()
			}
			m.Value = float64(v)
		case KindGauge:
			var v float64
			for _, fn := range e.gaugeFns {
				v += fn()
			}
			m.Value = v
			m.MergeMode = GaugeMergeModes[e.name]
		case KindHistogram:
			m.Count = e.hist.Count()
			m.Sum = e.hist.Sum()
			for i, c := range e.hist.buckets {
				if c == 0 {
					continue
				}
				lo, hi := BucketBounds(i)
				m.Buckets = append(m.Buckets, Bucket{Lo: lo, Hi: hi, Count: c})
			}
		}
		s.Metrics = append(s.Metrics, m)
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
	return s
}

// Get returns the named metric of the snapshot.
func (s Snapshot) Get(name string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// CounterValue returns the named counter's count, or 0 when absent —
// convenient for tests and table cross-checks.
func (s Snapshot) CounterValue(name string) uint64 {
	m, ok := s.Get(name)
	if !ok {
		return 0
	}
	return uint64(m.Value)
}

// Merge combines snapshots metric-by-metric: counter values, histogram
// counts/sums/buckets always sum, and gauges fold per their MergeMode —
// additive gauges (bytes, pages) sum, ratio/pressure gauges tagged
// MergeMax in GaugeMergeModes take the maximum across cells (summing
// buddy_fragmentation_ratio over 96 cells is meaningless; the worst
// cell is the meaningful reduction). Snapshots cached before the
// MergeMode field existed resolve their mode from GaugeMergeModes by
// name, so old cache entries merge with the same semantics as fresh
// ones. The result is sorted by name and carries the resolved mode, so
// merged output is byte-identical whether inputs were stamped or not.
func Merge(snaps ...Snapshot) Snapshot {
	acc := make(map[string]*Metric)
	bkts := make(map[string]*[NumBuckets]uint64)
	var order []string
	for _, s := range snaps {
		for _, m := range s.Metrics {
			mode := m.MergeMode
			if m.Kind == KindGauge && mode == MergeSum {
				mode = GaugeMergeModes[m.Name]
			}
			a, ok := acc[m.Name]
			if !ok {
				cp := m
				cp.Buckets = nil
				acc[m.Name] = &cp
				order = append(order, m.Name)
				bkts[m.Name] = &[NumBuckets]uint64{}
				a = acc[m.Name]
				a.Value = 0
				a.Count = 0
				a.Sum = 0
				a.MergeMode = mode
			}
			if m.Kind == KindGauge && mode == MergeMax {
				if m.Value > a.Value {
					a.Value = m.Value
				}
			} else {
				a.Value += m.Value
			}
			a.Count += m.Count
			a.Sum += m.Sum
			b := bkts[m.Name]
			for _, bk := range m.Buckets {
				b[bits.Len64(bk.Lo)] += bk.Count
			}
		}
	}
	sort.Strings(order)
	var out Snapshot
	for _, name := range order {
		m := *acc[name]
		if m.Kind == KindHistogram {
			for i, c := range bkts[name] {
				if c == 0 {
					continue
				}
				lo, hi := BucketBounds(i)
				m.Buckets = append(m.Buckets, Bucket{Lo: lo, Hi: hi, Count: c})
			}
		}
		out.Metrics = append(out.Metrics, m)
	}
	return out
}

// WriteText renders the snapshot in a Prometheus-exposition-style text
// format: "# TYPE name kind" lines followed by "name value" samples;
// histograms expose _count, _sum and cumulative _bucket{le="hi"}
// samples. Output is deterministic (sorted by name).
func (s Snapshot) WriteText(w io.Writer) error {
	for _, m := range s.Metrics {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
			return err
		}
		switch m.Kind {
		case KindHistogram:
			cum := uint64(0)
			for _, b := range m.Buckets {
				cum += b.Count
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", m.Name, b.Hi, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", m.Name, m.Sum, m.Name, m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, formatValue(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatValue prints counters as integers (so counts byte-match table
// output) and non-integral gauges with fixed precision.
func formatValue(v float64) string {
	if v == float64(uint64(v)) {
		return fmt.Sprintf("%d", uint64(v))
	}
	return fmt.Sprintf("%.6f", v)
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
