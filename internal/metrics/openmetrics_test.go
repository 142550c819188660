package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// TestWriteOpenMetricsGolden pins the exposition byte-for-byte for a
// registry exercising all three kinds, the counter-family renaming
// (hpmmap_bytes_mapped lacks the _total suffix internally and gains it
// on the sample), HELP sourcing from MetricHelp, and the mandatory
// +Inf bucket and # EOF terminator.
func TestWriteOpenMetricsGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(BuddyAllocsTotal).Add(42)
	r.Counter(HPMMAPBytesMapped).Add(1 << 21)
	r.GaugeFunc(BuddyFragRatio, func() float64 { return 0.25 })
	h := r.Histogram(FaultSmallCycles)
	h.Observe(3) // bucket [2,4)
	h.Observe(3)
	h.Observe(900) // bucket [512,1024)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP buddy_allocs successful block allocations`,
		`# TYPE buddy_allocs counter`,
		`buddy_allocs_total 42`,
		`# HELP buddy_fragmentation_ratio 1 − largest-free-block / free-bytes (merge: max)`,
		`# TYPE buddy_fragmentation_ratio gauge`,
		`buddy_fragmentation_ratio 0.250000`,
		`# HELP fault_small_cycles cost of each 4KB fault`,
		`# TYPE fault_small_cycles histogram`,
		`fault_small_cycles_bucket{le="3"} 2`,
		`fault_small_cycles_bucket{le="1023"} 3`,
		`fault_small_cycles_bucket{le="+Inf"} 3`,
		`fault_small_cycles_sum 906`,
		`fault_small_cycles_count 3`,
		`# HELP hpmmap_bytes_mapped cumulative bytes handed out by mmap/brk`,
		`# TYPE hpmmap_bytes_mapped counter`,
		`hpmmap_bytes_mapped_total 2097152`,
		`# EOF`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestOpenMetricsValidityAllMetrics is the promtool-shaped format
// check: register every metric the contract declares (with its
// documented kind), expose the snapshot, and require that the stream
// parses cleanly, terminates with # EOF, carries a HELP and TYPE line
// per family, and round-trips every value.
func TestOpenMetricsValidityAllMetrics(t *testing.T) {
	consts := parseNameConstants(t)
	kinds := docMetricRows(t)
	r := NewRegistry()
	i := uint64(0)
	for _, name := range consts {
		i++
		switch kinds[name] {
		case "counter":
			r.Counter(name).Add(i)
		case "gauge":
			v := float64(i) + 0.5
			r.GaugeFunc(name, func() float64 { return v })
		case "histogram":
			h := r.Histogram(name)
			h.Observe(i)
			h.Observe(i * 1000)
		default:
			t.Fatalf("metric %q has no documented kind", name)
		}
	}
	snap := r.Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()

	// Structural validity: one HELP and one TYPE per family, TYPE
	// before any of the family's samples, EOF last.
	if !strings.HasSuffix(exposition, "# EOF\n") {
		t.Error("exposition does not end with # EOF")
	}
	typed := map[string]bool{}
	for n, line := range strings.Split(strings.TrimSuffix(exposition, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)[2]
			if typed[f] {
				t.Errorf("line %d: duplicate TYPE for %s", n+1, f)
			}
			typed[f] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count", "_total"} {
			if f := strings.TrimSuffix(name, suf); f != name && typed[f] {
				family = f
				break
			}
		}
		if !typed[family] {
			t.Errorf("line %d: sample %q precedes its TYPE declaration", n+1, name)
		}
	}
	for _, name := range consts {
		family := name
		if kinds[name] == "counter" {
			family = strings.TrimSuffix(family, "_total")
		}
		if !strings.Contains(exposition, "# HELP "+family+" ") {
			t.Errorf("family %s has no HELP line", family)
		}
	}

	// Semantic validity: parse back and compare against the source
	// snapshot (counter samples live under <family>_total).
	parsed, err := ParseExposition(strings.NewReader(exposition))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, m := range snap.Metrics {
		expName := m.Name
		if m.Kind == KindCounter {
			expName = strings.TrimSuffix(expName, "_total") + "_total"
		}
		p, ok := parsed.Get(expName)
		if !ok {
			t.Errorf("metric %s missing from parsed exposition (as %s)", m.Name, expName)
			continue
		}
		if p.Kind != m.Kind {
			t.Errorf("%s: parsed kind %s, want %s", m.Name, p.Kind, m.Kind)
		}
		if m.Kind == KindHistogram {
			if p.Count != m.Count || p.Sum != m.Sum || len(p.Buckets) != len(m.Buckets) {
				t.Errorf("%s: parsed count/sum/buckets = %d/%d/%d, want %d/%d/%d",
					m.Name, p.Count, p.Sum, len(p.Buckets), m.Count, m.Sum, len(m.Buckets))
			}
			for i := range p.Buckets {
				if p.Buckets[i].Hi != m.Buckets[i].Hi || p.Buckets[i].Count != m.Buckets[i].Count {
					t.Errorf("%s bucket %d: parsed {hi=%d c=%d}, want {hi=%d c=%d}", m.Name, i,
						p.Buckets[i].Hi, p.Buckets[i].Count, m.Buckets[i].Hi, m.Buckets[i].Count)
				}
			}
		} else if p.Value != m.Value {
			t.Errorf("%s: parsed value %v, want %v", m.Name, p.Value, m.Value)
		}
	}
}

// TestParseExpositionRejectsMalformed: the parser is the format gate
// for diff inputs, so it must reject streams promtool would.
func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"missing EOF":     "# TYPE a gauge\na 1\n",
		"data after EOF":  "# TYPE a gauge\na 1\n# EOF\na 2\n",
		"bad value":       "# TYPE a gauge\na one\n# EOF\n",
		"bad sample":      "# TYPE a gauge\njustaname\n# EOF\n",
		"unknown type":    "# TYPE a summary\na 1\n# EOF\n",
		"bucket sans le":  "# TYPE a histogram\na_bucket{ge=\"1\"} 1\n# EOF\n",
		"non-monotonic":   "# TYPE a histogram\na_bucket{le=\"1\"} 5\na_bucket{le=\"2\"} 3\n# EOF\n",
		"unclosed labels": "# TYPE a gauge\na{x=\"1\" 2\n# EOF\n",
		// Once accepted as a gauge named " ", which WriteOpenMetrics
		// then wrote as an exposition this parser rejects.
		"blank name":   "  0\n# EOF",
		"invalid name": "# TYPE A gauge\nA-1 1\n# EOF\n",
		"labels only":  "{le=\"1\"} 1\n# EOF\n",
		// Once read through a float conversion, which wrapped a
		// negative sum to 2^64-1 and rewrote it as 2^63.
		"negative histogram sum": "# TYPE h histogram\nh_sum -1\n# EOF\n",
		"fractional bucket":      "# TYPE h histogram\nh_bucket{le=\"1\"} 0.5\n# EOF\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}
