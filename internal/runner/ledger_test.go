package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"hpmmap/internal/ledger"
	"hpmmap/internal/metrics"
)

// holesArtifacts runs an 8-cell plan with cells 2 and 5 quarantined
// (ContinueOnError) and full instrumentation on the surviving cells,
// returning every merged artifact: snapshot JSON, Chrome trace, series
// CSV, and the ledger's canonical projection.
func holesArtifacts(t *testing.T, workers int) (snap, trace, series, canon []byte) {
	t.Helper()
	obs := NewObservations(0)
	obs.EnableTrace()
	obs.EnableSeries()
	var raw bytes.Buffer
	led := ledger.New(&raw, ledger.Meta{
		Model: "test-model", Scale: 1, Flags: map[string]string{"exp": "holes"},
	})
	obs.SetLedger(led)

	plan := degradePlan(8)
	boom := errors.New("cell exploded\nhost stack detail varies across runs")
	_, err := Run(Options{
		Workers: workers, ContinueOnError: true,
		Metrics: obs.PlanRegistry(), Obs: obs,
	}, plan, func(_ context.Context, idx int, c Cell, seed uint64) (int, error) {
		if idx == 2 || idx == 5 {
			return 0, boom
		}
		reg, tr := obs.Cell(idx, c.String())
		reg.Counter(metrics.SimEventsTotal).Add(uint64(idx + 1))
		tr.Instant(0, "test", fmt.Sprintf("tick%d", idx), uint64(idx))
		s := obs.Series(idx)
		s.Observe(reg, tr)
		probeVal := float64(idx)
		s.AddProbe(0, metrics.SimEventsTotal, func() float64 { return probeVal })
		s.Sample(uint64(100 + idx))
		return idx, nil
	})
	ge, ok := AsGridError(err)
	if !ok || len(ge.Failures) != 2 || ge.Failures[0].Index != 2 || ge.Failures[1].Index != 5 {
		t.Fatalf("want grid error with cells 2 and 5 quarantined, got %v", err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	var snapBuf, traceBuf, seriesBuf bytes.Buffer
	if err := obs.Merged().WriteJSON(&snapBuf); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTrace(&traceBuf); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSeriesCSV(&seriesBuf); err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.Read(&raw)
	if err != nil {
		t.Fatal(err)
	}
	canon, err = ledger.Marshal(ledger.Canonical(recs))
	if err != nil {
		t.Fatal(err)
	}
	return snapBuf.Bytes(), traceBuf.Bytes(), seriesBuf.Bytes(), canon
}

// TestObservationsHolesByteIdenticalAcrossWorkers is the quarantine
// half of the observability determinism contract: with cells 2 and 5
// failed under ContinueOnError, the merged snapshot, trace, series CSV
// and canonical ledger projection are byte-identical at Workers=1 and
// Workers=8.
func TestObservationsHolesByteIdenticalAcrossWorkers(t *testing.T) {
	snap1, trace1, series1, canon1 := holesArtifacts(t, 1)
	snap8, trace8, series8, canon8 := holesArtifacts(t, 8)
	for _, c := range []struct {
		name   string
		w1, w8 []byte
	}{
		{"snapshot", snap1, snap8},
		{"trace", trace1, trace8},
		{"series", series1, series8},
		{"canonical ledger", canon1, canon8},
	} {
		if !bytes.Equal(c.w1, c.w8) {
			t.Errorf("%s differs between Workers=1 and Workers=8:\nW1:\n%s\nW8:\n%s", c.name, c.w1, c.w8)
		}
	}

	// The canonical projection records the holes, with only the
	// deterministic first line of the error text.
	recs, err := ledger.Read(bytes.NewReader(canon1))
	if err != nil {
		t.Fatal(err)
	}
	quarantined := 0
	for _, r := range recs {
		if r.T == ledger.TypeCellFinish && r.Status == ledger.StatusQuarantined {
			quarantined++
			if r.I != 2 && r.I != 5 {
				t.Errorf("unexpected quarantined cell %d", r.I)
			}
			if r.Err != "cell exploded" {
				t.Errorf("cell %d err = %q, want first line only", r.I, r.Err)
			}
		}
	}
	if quarantined != 2 {
		t.Fatalf("quarantined finish records = %d, want 2", quarantined)
	}
	end := recs[len(recs)-1]
	if end.T != ledger.TypePlanEnd || end.OK != 6 || end.Quarantined != 2 || end.Failed != 0 {
		t.Fatalf("plan_end = %+v", end)
	}
}

// TestLedgerMetricsInMergedSnapshot pins the runner_ledger_* plan
// metrics: they count canonical records and plans only, so the values
// are the same at any worker count.
func TestLedgerMetricsInMergedSnapshot(t *testing.T) {
	for _, workers := range []int{1, 8} {
		obs := NewObservations(0)
		var raw bytes.Buffer
		led := ledger.New(&raw, ledger.Meta{})
		obs.SetLedger(led)
		plan := degradePlan(8)
		_, err := Run(Options{
			Workers: workers, Metrics: obs.PlanRegistry(), Obs: obs,
		}, plan, func(_ context.Context, idx int, _ Cell, _ uint64) (int, error) {
			return idx, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := obs.Merged()
		// manifest + 8 starts + 8 finishes + plan_end = 18.
		if got := snap.CounterValue(metrics.RunnerLedgerRecordsTotal); got != 18 {
			t.Fatalf("workers=%d: runner_ledger_records_total = %d, want 18", workers, got)
		}
		if got := snap.CounterValue(metrics.RunnerLedgerPlansTotal); got != 1 {
			t.Fatalf("workers=%d: runner_ledger_plans_total = %d, want 1", workers, got)
		}
	}
}

// TestLedgerMetricsPerCollector: collectors that share one ledger, as
// the experiments of one invocation do, each count only the plans and
// records they journaled.
func TestLedgerMetricsPerCollector(t *testing.T) {
	var raw bytes.Buffer
	led := ledger.New(&raw, ledger.Meta{})
	for i, cells := range []int{8, 2, 5} {
		obs := NewObservations(0)
		obs.SetLedger(led)
		_, err := Run(Options{Workers: 2, Metrics: obs.PlanRegistry(), Obs: obs}, degradePlan(cells),
			func(_ context.Context, idx int, _ Cell, _ uint64) (int, error) { return idx, nil })
		if err != nil {
			t.Fatal(err)
		}
		snap := obs.Merged()
		if got, want := snap.CounterValue(metrics.RunnerLedgerRecordsTotal), uint64(2+2*cells); got != want {
			t.Errorf("collector %d: runner_ledger_records_total = %d, want %d", i, got, want)
		}
		if got := snap.CounterValue(metrics.RunnerLedgerPlansTotal); got != 1 {
			t.Errorf("collector %d: runner_ledger_plans_total = %d, want 1", i, got)
		}
	}
}

// TestLedgerNilSinkUnwired: a plan with no ledger attached journals
// nothing and pays no host probes (totalAlloc is gated on led != nil).
func TestLedgerNilSinkUnwired(t *testing.T) {
	obs := NewObservations(0)
	if obs.ledgerSink() != nil {
		t.Fatal("LedgerSink non-nil before SetLedger")
	}
	var o *Observations
	if o.ledgerSink() != nil {
		t.Fatal("nil Observations returned a ledger")
	}
	o.SetLedger(nil) // must not panic
	_, err := Run(Options{Workers: 2, Obs: obs}, degradePlan(4),
		func(_ context.Context, idx int, _ Cell, _ uint64) (int, error) { return idx, nil })
	if err != nil {
		t.Fatal(err)
	}
}
