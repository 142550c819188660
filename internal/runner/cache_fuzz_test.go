package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"hpmmap/internal/metrics"
)

// FuzzCacheGet writes arbitrary bytes as a cache entry. get must never
// panic, and neither may replaying the decoded snapshot through
// metrics.Merge, as a cache hit does. An entry get accepts must
// round-trip: put back under a new key, it gets the same entry again.
func FuzzCacheGet(f *testing.F) {
	f.Add([]byte(`{"result":{"RuntimeSec":151.25,"Faults":1337},"metrics":{"metrics":null}}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(`{"result":{"RuntimeSec":1},"metrics":{"metrics":[{"name":"h","kind":"histogram","count":2,"sum":5,"buckets":[{"lo":2,"hi":3,"count":2}]},{"name":"g","kind":"gauge","value":0.5,"merge":"max"}]}}`))
	r := metrics.NewRegistry()
	r.Counter(metrics.HPMMAPBytesMapped).Add(1 << 21)
	r.GaugeFunc(metrics.BuddyFragRatio, func() float64 { return 0.25 })
	r.Histogram(metrics.FaultSmallCycles).Observe(900)
	golden, err := json.Marshal(entry[cachedCell]{Result: cachedCell{RuntimeSec: 2.5, Faults: 9}, Metrics: r.Snapshot()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	c, err := NewCache(f.TempDir(), "v1")
	if err != nil {
		f.Fatal(err)
	}
	in, out := c.key("fuzz", Cell{Exp: "in"}, 1, ""), c.key("fuzz", Cell{Exp: "out"}, 1, "")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.path(in), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var e entry[cachedCell]
		if !c.get(in, &e) {
			return
		}
		metrics.Merge(e.Metrics)
		metrics.Merge(e.Metrics, e.Metrics)
		if err := c.put(out, e); err != nil {
			t.Fatal(err)
		}
		var again entry[cachedCell]
		if !c.get(out, &again) {
			t.Fatalf("accepted entry %q is rejected once put back", data)
		}
		first, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("accepted entry %q does not round-trip:\n--- put ---\n%s\n--- got back ---\n%s", data, first, second)
		}
	})
}
