package experiments

import (
	"bytes"
	"strings"
	"testing"

	"hpmmap/internal/invariant"
	"hpmmap/internal/runner"
)

func tinyChaosOpts() ChaosStudyOptions {
	return ChaosStudyOptions{
		Bench:       "HPCCG",
		Managers:    []ManagerKind{HPMMAP, THP},
		Intensities: []float64{0, 1},
		Cores:       2,
		Runs:        1,
		Seed:        99,
		Scale:       0.1,
	}
}

func TestChaosStudySmall(t *testing.T) {
	s, err := ChaosStudyRun(tinyChaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Failures) != 0 {
		t.Fatalf("clean study reported failures: %+v", s.Failures)
	}
	if len(s.Series) != 2 || len(s.Series[0].Points) != 2 {
		t.Fatalf("unexpected study shape: %+v", s)
	}
	for _, series := range s.Series {
		for _, pt := range series.Points {
			if pt.MeanSec <= 0 {
				t.Fatalf("%v intensity %.2f: non-positive mean %f", series.Kind, pt.Intensity, pt.MeanSec)
			}
		}
	}
	var buf bytes.Buffer
	WriteChaosStudy(&buf, s)
	out := buf.String()
	if !strings.Contains(out, "Contention-storm study") || !strings.Contains(out, "HPMMAP") {
		t.Fatalf("study output missing expected sections:\n%s", out)
	}
	if strings.Contains(out, "quarantined") {
		t.Fatalf("clean study printed a quarantine block:\n%s", out)
	}
}

func TestChaosStudyWorkerCountInvariance(t *testing.T) {
	render := func(workers int) (string, string) {
		o := tinyChaosOpts()
		o.Workers = workers
		o.Obs = runner.NewObservations(0)
		s, err := ChaosStudyRun(o)
		if err != nil {
			t.Fatal(err)
		}
		var tbl, met bytes.Buffer
		WriteChaosStudy(&tbl, s)
		if err := o.Obs.Merged().WriteText(&met); err != nil {
			t.Fatal(err)
		}
		return tbl.String(), met.String()
	}
	tbl1, met1 := render(1)
	tbl4, met4 := render(4)
	if tbl1 != tbl4 {
		t.Fatalf("study table differs between Workers=1 and Workers=4:\n--- w1:\n%s\n--- w4:\n%s", tbl1, tbl4)
	}
	if met1 != met4 {
		t.Fatal("merged metrics differ between Workers=1 and Workers=4")
	}
}

func TestChaosStudyPoisonedCellQuarantined(t *testing.T) {
	o := tinyChaosOpts()
	o.PoisonCell = 1 // HPMMAP @ intensity 1
	o.Audit = true
	s, err := ChaosStudyRun(o)
	if err != nil {
		t.Fatalf("ContinueOnError study returned a hard error: %v", err)
	}
	if len(s.Failures) != 1 {
		t.Fatalf("want exactly one quarantined cell, got %d: %+v", len(s.Failures), s.Failures)
	}
	f := s.Failures[0]
	if f.Index != 1 {
		t.Fatalf("wrong cell quarantined: %+v", f)
	}
	v, ok := invariant.As(f.Err)
	if !ok || v.Check != "chaos_injected" || v.Subsystem != "chaos" {
		t.Fatalf("structured violation lost: %+v", f)
	}
	if v.SimCycles == 0 {
		t.Fatal("violation not annotated with simulated time")
	}
	// The poisoned point is a hole; the others survived.
	var holes, goodPoints int
	for _, series := range s.Series {
		for _, pt := range series.Points {
			holes += pt.Failed
			if len(pt.Runs) > 0 {
				goodPoints++
			}
		}
	}
	if holes != 1 || goodPoints != 3 {
		t.Fatalf("want 1 hole and 3 surviving points, got %d/%d", holes, goodPoints)
	}
	var buf bytes.Buffer
	WriteChaosStudy(&buf, s)
	out := buf.String()
	if !strings.Contains(out, "quarantined cells (1)") {
		t.Fatalf("missing quarantine block:\n%s", out)
	}
	if !strings.Contains(out, "—") {
		t.Fatalf("missing annotated hole in table:\n%s", out)
	}
	if !strings.Contains(out, "chaos/chaos_injected") {
		t.Fatalf("missing invariant report group:\n%s", out)
	}
}

func TestChaosStudyFailFast(t *testing.T) {
	o := tinyChaosOpts()
	o.PoisonCell = 2 // THP @ intensity 0
	o.DisableContinueOnError = true
	_, err := ChaosStudyRun(o)
	if err == nil {
		t.Fatal("fail-fast poisoned study returned nil error")
	}
	if _, ok := runner.AsGridError(err); ok {
		t.Fatal("fail-fast mode returned a GridError")
	}
}

func TestChaosStudyAuditCleanRun(t *testing.T) {
	o := tinyChaosOpts()
	o.Intensities = []float64{1}
	o.Managers = []ManagerKind{HPMMAP}
	o.Audit = true
	o.Obs = runner.NewObservations(0)
	s, err := ChaosStudyRun(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Failures) != 0 {
		t.Fatalf("audit found violations on a healthy machine under chaos: %+v", s.Failures)
	}
	snap := o.Obs.Merged()
	if snap.CounterValue("invariant_checks_total") == 0 {
		t.Fatal("auditor ran no checks")
	}
	if got := snap.CounterValue("invariant_violations_total"); got != 0 {
		t.Fatalf("auditor counted %d violations on a healthy run", got)
	}
	if snap.CounterValue("chaos_events_total") == 0 {
		t.Fatal("no chaos events recorded at intensity 1")
	}
}
