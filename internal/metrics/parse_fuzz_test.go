package metrics

import (
	"bytes"
	"testing"
)

// FuzzParseExposition feeds ParseExposition arbitrary bytes. It must
// never panic, and any input it accepts must round-trip: the snapshot,
// written back with WriteOpenMetrics, parses again and writes the same
// bytes.
func FuzzParseExposition(f *testing.F) {
	f.Add([]byte("# TYPE a gauge\na 1\n# EOF\n"))
	f.Add([]byte("# TYPE c counter\nc_total 7\n# TYPE h histogram\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 5\nh_count 2\n# EOF\n"))
	r := NewRegistry()
	r.Counter(HPMMAPBytesMapped).Add(1 << 21)
	r.GaugeFunc(BuddyFragRatio, func() float64 { return 0.25 })
	r.Histogram(FaultSmallCycles).Observe(900)
	var golden bytes.Buffer
	if err := r.Snapshot().WriteOpenMetrics(&golden); err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ParseExposition(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.WriteOpenMetrics(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ParseExposition(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("accepted input %q writes an exposition the parser rejects: %v\n%s", in, err, first.Bytes())
		}
		if err := again.WriteOpenMetrics(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("accepted input %q does not round-trip:\n--- first write ---\n%s--- after re-parse ---\n%s", in, first.Bytes(), second.Bytes())
		}
	})
}
