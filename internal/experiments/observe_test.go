package experiments

import (
	"bytes"
	"testing"

	"hpmmap/internal/fault"
	"hpmmap/internal/metrics"
	"hpmmap/internal/runner"
)

// faultCountMetric maps a fault kind onto its fault_* counter name, the
// same correspondence internal/kernel's instrumentation uses.
var faultCountMetric = map[fault.Kind]string{
	fault.KindSmall:        metrics.FaultSmallFaultsTotal,
	fault.KindLarge:        metrics.FaultLargeFaultsTotal,
	fault.KindMergeBlocked: metrics.FaultMergeFaultsTotal,
	fault.KindHugeTLBLarge: metrics.FaultHugeLargeFaultsTotal,
	fault.KindHugeTLBSmall: metrics.FaultHugeSmallFaultsTotal,
	fault.KindStackGrow:    metrics.FaultStackFaultsTotal,
}

var faultCycleMetric = map[fault.Kind]string{
	fault.KindSmall:        metrics.FaultSmallCycles,
	fault.KindLarge:        metrics.FaultLargeCycles,
	fault.KindMergeBlocked: metrics.FaultMergeCycles,
	fault.KindHugeTLBLarge: metrics.FaultHugeLargeCycles,
	fault.KindHugeTLBSmall: metrics.FaultHugeSmallCycles,
	fault.KindStackGrow:    metrics.FaultStackCycles,
}

// TestFaultStudyMetricsMatchTables pins the byte-match contract of
// OBSERVABILITY.md: the fault_* counters cover exactly the recorder's
// population, so per-kind counts and cycle sums from the metric
// snapshot must equal the Figure 2/3 table rows derived from the
// per-fault records.
func TestFaultStudyMetricsMatchTables(t *testing.T) {
	for _, kind := range []ManagerKind{THP, HugeTLBfs} {
		fs, err := RunFaultStudy(FaultStudyOptions{
			Kind:  kind,
			Scale: 0.25,
			Obs:   runner.NewObservations(0),
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, row := range fs.Rows {
			if len(row.Metrics.Metrics) == 0 {
				t.Fatalf("%v loaded=%v: row snapshot empty", kind, row.Loaded)
			}
			// Recompute the table's per-kind count and total cost from
			// the raw records, independently of Summarize.
			var count [fault.NumKinds]uint64
			var cycles [fault.NumKinds]uint64
			row.Recorder.Each(func(rec fault.Record) {
				count[rec.Kind]++
				cycles[rec.Kind] += uint64(rec.Cost)
			})
			for ki := 0; ki < fault.NumKinds; ki++ {
				k := fault.Kind(ki)
				if got := row.Metrics.CounterValue(faultCountMetric[k]); got != count[k] {
					t.Errorf("%v loaded=%v: %s = %d, table count = %d",
						kind, row.Loaded, faultCountMetric[k], got, count[k])
				}
				m, ok := row.Metrics.Get(faultCycleMetric[k])
				if count[k] == 0 {
					if ok && m.Count != 0 {
						t.Errorf("%v loaded=%v: %s has %d observations for an absent kind",
							kind, row.Loaded, faultCycleMetric[k], m.Count)
					}
					continue
				}
				if !ok {
					t.Errorf("%v loaded=%v: %s missing", kind, row.Loaded, faultCycleMetric[k])
					continue
				}
				if m.Count != count[k] || m.Sum != cycles[k] {
					t.Errorf("%v loaded=%v: %s count/sum = %d/%d, table = %d/%d",
						kind, row.Loaded, faultCycleMetric[k], m.Count, m.Sum, count[k], cycles[k])
				}
			}
			// And the summaries (what the printed tables render) agree
			// with the same counters.
			for _, s := range row.Summaries {
				if got := row.Metrics.CounterValue(faultCountMetric[s.Kind]); got != s.Count {
					t.Errorf("%v loaded=%v: summary %s count %d != counter %d",
						kind, row.Loaded, s.Kind, s.Count, got)
				}
			}
		}
	}
}

// fig7Tiny is a 6-cell grid (1 bench x 1 profile x 3 managers x
// 2 core counts x 1 run) kept deliberately small: the observability
// tests run it several times and must stay cheap under -race.
func fig7Tiny(workers int) Fig7Options {
	return Fig7Options{
		Benches:    []string{"HPCCG"},
		Profiles:   []Profile{ProfileA},
		CoreCounts: []int{1, 2},
		Runs:       1,
		Seed:       303,
		Scale:      0.1,
		Workers:    workers,
	}
}

// TestObservedFig7IdenticalAcrossWorkerCounts extends the determinism
// contract to the observability artifacts: the merged metric snapshot
// and the Chrome trace document must be byte-identical between
// Workers=1 and Workers=8, because cells are collected by index, not by
// completion order.
func TestObservedFig7IdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (metrics.Snapshot, []byte) {
		o := fig7Tiny(workers)
		obs := runner.NewObservations(0)
		obs.EnableTrace()
		o.Obs = obs
		if _, err := Fig7(o); err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := obs.WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		return obs.Merged(), trace.Bytes()
	}
	serialSnap, serialTrace := run(1)
	parallelSnap, parallelTrace := run(8)
	a, b := asJSON(t, serialSnap), asJSON(t, parallelSnap)
	if string(a) != string(b) {
		t.Errorf("merged snapshots differ between Workers=1 and Workers=8")
	}
	if !bytes.Equal(serialTrace, parallelTrace) {
		t.Errorf("trace documents differ between Workers=1 and Workers=8 (%d vs %d bytes)",
			len(serialTrace), len(parallelTrace))
	}
	if len(serialSnap.Metrics) == 0 || len(serialTrace) < 100 {
		t.Fatalf("observed run produced no artifacts (metrics=%d, trace=%dB)",
			len(serialSnap.Metrics), len(serialTrace))
	}
}

// TestTraceDoesNotPerturbSnapshot: recording a trace (EnableTrace,
// i.e. -trace-out) leaves the merged metric snapshot byte-identical.
func TestTraceDoesNotPerturbSnapshot(t *testing.T) {
	snap := func(trace bool) []byte {
		obs := runner.NewObservations(0)
		if trace {
			obs.EnableTrace()
		}
		o := fig7Tiny(2)
		o.Obs = obs
		if _, err := Fig7(o); err != nil {
			t.Fatal(err)
		}
		return asJSON(t, obs.Merged())
	}
	if !bytes.Equal(snap(false), snap(true)) {
		t.Error("merged snapshot differs with and without EnableTrace")
	}
}

// TestObservabilityDoesNotPerturbResults: running with a collector
// attached must not change the simulated results — instrumentation
// never draws from the PRNG or schedules events. The noise study's
// collector records a trace and samples series too.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	cases := []struct {
		name string
		run  func(obs *runner.Observations) (any, error)
	}{
		{"fig7", func(obs *runner.Observations) (any, error) {
			o := fig7Tiny(4)
			o.Obs = obs
			return Fig7(o)
		}},
		{"noise", func(obs *runner.Observations) (any, error) {
			obs.EnableTrace()
			obs.EnableSeries()
			return NoiseStudy(NoiseStudyOptions{RankCounts: []int{1, 2}, Scale: 0.25, Workers: 4, Obs: obs})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := c.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			obs := runner.NewObservations(0)
			observed, err := c.run(obs)
			if err != nil {
				t.Fatal(err)
			}
			a, b := asJSON(t, plain), asJSON(t, observed)
			if string(a) != string(b) {
				t.Fatalf("%s results differ with observability attached:\n%s\nvs\n%s", c.name, a, b)
			}
			if len(obs.Merged().Metrics) == 0 {
				t.Fatalf("%s: the observed run collected no metrics", c.name)
			}
		})
	}
}
