package runner

import (
	"bytes"
	"context"
	"io"
	"testing"

	"hpmmap/internal/metrics"
)

// TestTraceRecordedOnlyWhenEnabled: a collector hands cells a tracer
// only after EnableTrace, tracing leaves the merged snapshot untouched,
// and WriteTrace refuses a collector that recorded no trace.
func TestTraceRecordedOnlyWhenEnabled(t *testing.T) {
	if _, tr := NewObservations(0).Cell(0, "c"); tr != nil {
		t.Fatal("Cell returned a tracer without EnableTrace")
	}
	run := func(trace bool) (*Observations, []byte) {
		obs := NewObservations(2.2e9)
		if trace {
			obs.EnableTrace()
		}
		_, err := Run(Options{Workers: 3, Metrics: obs.PlanRegistry(), Obs: obs}, degradePlan(6),
			func(_ context.Context, idx int, c Cell, seed uint64) (int, error) {
				reg, tr := obs.Cell(idx, c.String())
				if (tr != nil) != trace {
					t.Errorf("cell %d: tracer %v with EnableTrace %v", idx, tr, trace)
				}
				reg.Counter(metrics.SimEventsTotal).Add(seed % 97)
				tr.Complete(0, "test", "cell", seed%1000, 10)
				return idx, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := obs.Merged().WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		return obs, snap.Bytes()
	}
	plain, plainSnap := run(false)
	traced, tracedSnap := run(true)
	if !bytes.Equal(plainSnap, tracedSnap) {
		t.Errorf("merged snapshot depends on EnableTrace:\nwithout:\n%s\nwith:\n%s", plainSnap, tracedSnap)
	}
	if err := plain.WriteTrace(io.Discard); err == nil {
		t.Error("WriteTrace without EnableTrace returned no error")
	}
	var trace bytes.Buffer
	if err := traced.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(trace.Bytes(), []byte(`"name":"cell"`)); n != 6 {
		t.Errorf("trace holds %d cell events, want 6:\n%s", n, trace.Bytes())
	}
	var none *Observations
	if err := none.WriteTrace(io.Discard); err != nil {
		t.Errorf("nil collector: %v", err)
	}
}
