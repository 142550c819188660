package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"hpmmap/internal/datacenter"
	"hpmmap/internal/runner"
)

// tinyEvictionOpts is the smallest grid that still exercises every leg
// of the failure domain: an overcommit point with pressure eviction, a
// chaos point with zone outages, and the quiet baseline.
func tinyEvictionOpts() EvictionStudyOptions {
	return EvictionStudyOptions{
		Bench:         "HPCCG",
		Overcommits:   []float64{1, 1.5},
		Chaos:         []float64{0, 1},
		Churn:         100,
		Ranks:         2,
		Runs:          1,
		Seed:          41,
		Scale:         0.1,
		PodBytes:      16 << 20,
		ResidentBytes: 16 << 20,
	}
}

// TestEvictionStudySmall is the ISSUE 8 acceptance panel: under
// overcommit with node-failure chaos, guaranteed pods take zero
// evictions while best-effort pods absorb them, the HPMMAP victim's
// runtime stays within 1% of the quiet cell, and no invariant breaks.
func TestEvictionStudySmall(t *testing.T) {
	s, err := EvictionStudyRun(tinyEvictionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("want 4 grid points, got %d", len(s.Points))
	}
	var sawEvictions, sawOutages bool
	for _, pt := range s.Points {
		if pt.MeanSec <= 0 {
			t.Fatalf("o%g x%g: non-positive mean %f", pt.Overcommit, pt.Intensity, pt.MeanSec)
		}
		// The victim-interference gate: the failure domain shreds the
		// commodity tenants, not the HPMMAP victim.
		if math.Abs(pt.InterferencePct) > 1 {
			t.Fatalf("o%g x%g: victim moved %.2f%% vs quiet (gate is 1%%)",
				pt.Overcommit, pt.Intensity, pt.InterferencePct)
		}
		for _, c := range pt.Cells {
			if c.Violations != 0 {
				t.Fatalf("o%g x%g: %d invariant violations", pt.Overcommit, pt.Intensity, c.Violations)
			}
			// The eviction-ordering invariant, asserted from the books
			// too: guaranteed pods are never evicted (best-effort pods
			// always outnumber them at these churn rates).
			if c.Evicted[datacenter.PriorityGuaranteed] != 0 {
				t.Fatalf("o%g x%g: %d guaranteed pods evicted",
					pt.Overcommit, pt.Intensity, c.Evicted[datacenter.PriorityGuaranteed])
			}
			if pt.Overcommit <= 1 && pt.Intensity == 0 {
				if got := total(c.Evicted); got != 0 {
					t.Fatalf("quiet cell evicted %d pods", got)
				}
				if c.EvictionPasses != 0 {
					t.Fatalf("quiet cell ran %d eviction passes", c.EvictionPasses)
				}
			}
			if pt.Overcommit > 1 {
				if c.EvictionPasses == 0 {
					t.Fatalf("o%g x%g: eviction manager never swept", pt.Overcommit, pt.Intensity)
				}
				if be := c.Evicted[datacenter.PriorityBestEffort]; be > 0 {
					sawEvictions = true
					// Best-effort absorbs the pressure: it must dominate
					// the burstable eviction count.
					if c.Evicted[datacenter.PriorityBurstable] > be {
						t.Fatalf("o%g x%g: burstable evictions (%d) exceed best-effort (%d)",
							pt.Overcommit, pt.Intensity,
							c.Evicted[datacenter.PriorityBurstable], be)
					}
				}
				if total(c.Evicted) > 0 && (c.BackoffCount == 0 || total(c.Restarts) == 0) {
					t.Fatalf("o%g x%g: evictions without crash-loop restarts", pt.Overcommit, pt.Intensity)
				}
			}
			if pt.Intensity > 0 && c.ZoneFailures > 0 {
				sawOutages = true
				if c.Rescheduled+total(c.Restarts) == 0 {
					t.Fatalf("o%g x%g: %d zone failures displaced no pods",
						pt.Overcommit, pt.Intensity, c.ZoneFailures)
				}
			}
			// The paper's claim survives the failure domain: the HPMMAP
			// class's fault tail stays pinned at zero.
			if c.Classes[datacenter.ClassHPMMAP].P999 != 0 {
				t.Fatalf("o%g x%g: HPMMAP fault tail %d cycles",
					pt.Overcommit, pt.Intensity, c.Classes[datacenter.ClassHPMMAP].P999)
			}
			if c.Classes[datacenter.ClassTHP].P99 == 0 {
				t.Fatalf("o%g x%g: THP class shows no fault tail", pt.Overcommit, pt.Intensity)
			}
		}
	}
	if !sawEvictions {
		t.Fatal("no overcommit point evicted a best-effort pod — the domain never engaged")
	}
	if !sawOutages {
		t.Fatal("no chaos point produced a zone failure")
	}

	var buf bytes.Buffer
	WriteEvictionStudy(&buf, s)
	out := buf.String()
	for _, want := range []string{"Eviction study", "best-effort", "burstable", "guaranteed", "invariant violations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("study output missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := WriteEvictionCSV(&csv, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	wantRows := 1 + len(s.Points)*1*int(datacenter.NumPriorities)
	if len(lines) != wantRows {
		t.Fatalf("CSV has %d lines, want %d", len(lines), wantRows)
	}
}

// TestEvictionStudyDeterminism pins the contract the pinned-figures
// gate extends to the failure domain: the rendered study and the merged
// metrics are byte-identical across worker counts and across cold and
// warm cache — backoff jitter, eviction sweeps and zone outages
// included.
func TestEvictionStudyDeterminism(t *testing.T) {
	cache, err := runner.NewCache(t.TempDir(), ModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int, c *runner.Cache) (string, string) {
		o := tinyEvictionOpts()
		// One overcommit point keeps the determinism matrix cheap; the
		// chaos axis stays to pin the zone-outage substream.
		o.Overcommits = []float64{1.5}
		o.Workers = workers
		o.Cache = c
		o.Obs = runner.NewObservations(0)
		s, err := EvictionStudyRun(o)
		if err != nil {
			t.Fatal(err)
		}
		var tbl, met bytes.Buffer
		WriteEvictionStudy(&tbl, s)
		if err := o.Obs.Merged().WriteText(&met); err != nil {
			t.Fatal(err)
		}
		return tbl.String(), met.String()
	}
	tblRef, metRef := render(1, nil)
	if tbl8, met8 := render(8, nil); tbl8 != tblRef || met8 != metRef {
		t.Fatalf("Workers=8 differs from Workers=1:\n--- w1:\n%s\n--- w8:\n%s", tblRef, tbl8)
	}
	tblCold, metCold := render(1, cache)
	if tblCold != tblRef {
		t.Fatalf("cold cache table differs from reference:\n--- ref:\n%s\n--- cold:\n%s", tblRef, tblCold)
	}
	tblWarm, metWarm := render(8, cache)
	if tblWarm != tblRef {
		t.Fatalf("warm cache table differs from reference:\n--- ref:\n%s\n--- warm:\n%s", tblRef, tblWarm)
	}
	if metWarm != metCold {
		t.Fatal("merged metrics differ between cold and warm cache (replayed snapshots incomplete)")
	}
}
