package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hpmmap/internal/runner"
)

// The pinned-output contract (DESIGN.md §10): performance refactors of
// the fault/allocation hot path must preserve the PRNG draw sequence and
// all charged-cycle arithmetic exactly, so every figure artifact stays
// byte-identical. These tests render a reduced fig2/fig3 fault table
// and its rows beside the paper's numbers, the SHA-256 of each fig2
// row's per-fault CSV, the fig4 and fig5 timeline plots, a fig7 and
// fig8 panel, the chaos-study table, the attribution report, and the
// datacenter- and eviction-study tables and CSVs at Workers=1 and
// Workers=8 (cold and, for the cached studies, warm cache) and compare
// them byte-for-byte against the goldens committed under
// testdata/golden — captured from the tree as it stood before the hot
// path was restructured. Every future perf PR runs through this net.
//
// Regenerate (ONLY when a PR deliberately changes simulation semantics
// and says so): UPDATE_GOLDEN=1 go test ./internal/experiments -run Golden

// goldenDir holds the committed artifacts.
const goldenDir = "testdata/golden"

// renderGoldenArtifacts produces every pinned artifact at the given
// worker count. The configurations are deliberately reduced (scale 0.25,
// few cells) so the contract test stays fast while still crossing every
// hot-path layer: THP and HugeTLBfs micro-fidelity fault tables (fig2,
// fig3) and the same rows beside the paper's numbers (paper), their
// per-fault records and timelines (fig2 CSV, fig4, fig5),
// the aggregate-fidelity weak-scaling grid (fig7), the multi-node study
// (fig8), the chaos sweep, the barrier attribution report, the noise
// study at its defaults (rounded, and bit-exact at scales 1 and 0.25),
// the datacenter agent's pod churn, touch tails and OOM kills, and its
// failure domain's evictions, restarts and zone outages.
func renderGoldenArtifacts(t *testing.T, workers int, cache *runner.Cache) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	render := func(name string, fn func(w *bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("render %s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}

	fig2, err := Fig2(FaultStudyOptions{Ranks: 2, Seed: 7, Scale: 0.25, Workers: workers})
	if err != nil {
		t.Fatalf("render fig2.txt: %v", err)
	}
	render("fig2.txt", func(w *bytes.Buffer) error {
		WriteFaultStudy(w, fig2)
		return nil
	})
	// The tables above print only per-kind summaries; one SHA-256 per
	// row's CSV pins every record's order, time, cost, kind and stall.
	render("fig2-csv.txt", func(w *bytes.Buffer) error {
		for i, row := range fig2.Rows {
			h := sha256.New()
			if err := row.Recorder.WriteCSV(h); err != nil {
				return err
			}
			fmt.Fprintf(w, "row %d loaded=%t records=%d sha256=%x\n", i, row.Loaded, row.Recorder.Len(), h.Sum(nil))
		}
		return nil
	})
	render("fig4.txt", func(w *bytes.Buffer) error {
		tls, err := Fig4(FaultStudyOptions{Ranks: 2, Seed: 7, Scale: 0.25, Workers: workers})
		if err != nil {
			return err
		}
		WriteTimelines(w, "Figure 4: THP fault timeline, miniMD", tls, 72, 12)
		return nil
	})
	render("fig5.txt", func(w *bytes.Buffer) error {
		tls, err := Fig5(FaultStudyOptions{Ranks: 2, Seed: 9, Scale: 0.25, Workers: workers})
		if err != nil {
			return err
		}
		WriteTimelines(w, "Figure 5: HugeTLBfs fault timelines", tls, 72, 12)
		return nil
	})
	fig3, err := Fig3(FaultStudyOptions{Ranks: 2, Seed: 7, Scale: 0.25, Workers: workers})
	if err != nil {
		t.Fatalf("render fig3.txt: %v", err)
	}
	render("fig3.txt", func(w *bytes.Buffer) error {
		WriteFaultStudy(w, fig3)
		return nil
	})
	render("paper.txt", func(w *bytes.Buffer) error {
		WriteFaultStudyVsPaper(w, fig2)
		WriteFaultStudyVsPaper(w, fig3)
		return nil
	})
	render("fig7.txt", func(w *bytes.Buffer) error {
		panels, err := Fig7(Fig7Options{
			Benches:    []string{"miniMD"},
			Profiles:   []Profile{ProfileA},
			CoreCounts: []int{1, 2},
			Runs:       2,
			Seed:       101,
			Scale:      0.25,
			Workers:    workers,
			Cache:      cache,
		})
		if err != nil {
			return err
		}
		WriteFig7(w, panels)
		return nil
	})
	render("fig8.txt", func(w *bytes.Buffer) error {
		panels, err := Fig8(Fig7Options{
			Benches:    []string{"LAMMPS"},
			Profiles:   []Profile{ProfileC},
			CoreCounts: []int{4},
			Runs:       1,
			Seed:       202,
			Scale:      0.25,
			Workers:    workers,
		})
		if err != nil {
			return err
		}
		WriteFig8(w, panels)
		return nil
	})
	render("chaos.txt", func(w *bytes.Buffer) error {
		s, err := ChaosStudyRun(ChaosStudyOptions{
			Intensities: []float64{0, 0.75},
			Cores:       2,
			Runs:        1,
			Seed:        303,
			Scale:       0.25,
			Workers:     workers,
		})
		if err != nil {
			return err
		}
		if len(s.Failures) != 0 {
			t.Fatalf("chaos golden run quarantined cells: %+v", s.Failures)
		}
		WriteChaosStudy(w, s)
		return nil
	})
	render("attribution.txt", func(w *bytes.Buffer) error {
		cells, err := RunAttributionStudy(AttributionStudyOptions{
			Ranks: 4, Seed: 404, Scale: 0.25, Workers: workers,
		})
		if err != nil {
			return err
		}
		return WriteAttributionStudy(w, cells)
	})
	render("noise.txt", func(w *bytes.Buffer) error {
		points, err := NoiseStudy(NoiseStudyOptions{Scale: 1, Workers: workers})
		if err != nil {
			return err
		}
		w.WriteString(WriteNoiseStudy(points))
		return nil
	})
	// noise.txt rounds runtimes to 0.1 s; %v prints the shortest form
	// that round-trips, so each line here pins every bit of a point.
	render("noise-exact.txt", func(w *bytes.Buffer) error {
		for _, sc := range []Scale{1, 0.25} {
			points, err := NoiseStudy(NoiseStudyOptions{Scale: sc, Workers: workers})
			if err != nil {
				return err
			}
			for _, p := range points {
				fmt.Fprintf(w, "scale=%v ranks=%d base=%v noisy=%v cost=%v amplification=%v\n",
					sc, p.Ranks, p.BaseSec, p.NoisySec, p.SlowdownSec, p.Amplification)
			}
		}
		return nil
	})
	dc, err := DatacenterStudyRun(DatacenterStudyOptions{
		Churns:      []float64{0, 200},
		Intensities: []float64{0, 1},
		Ranks:       2,
		Runs:        1,
		Seed:        77,
		Scale:       0.1,
		Workers:     workers,
		Cache:       cache,
	})
	if err != nil {
		t.Fatalf("render datacenter.txt: %v", err)
	}
	render("datacenter.txt", func(w *bytes.Buffer) error {
		WriteDatacenterStudy(w, dc)
		return nil
	})
	render("datacenter-csv.txt", func(w *bytes.Buffer) error {
		return WriteDatacenterCSV(w, dc)
	})
	render("eviction.txt", func(w *bytes.Buffer) error {
		s, err := EvictionStudyRun(EvictionStudyOptions{
			Overcommits:   []float64{1.5},
			Chaos:         []float64{0, 1},
			Churn:         100,
			Ranks:         2,
			Runs:          1,
			Seed:          41,
			Scale:         0.1,
			PodBytes:      16 << 20,
			ResidentBytes: 16 << 20,
			Workers:       workers,
			Cache:         cache,
		})
		if err != nil {
			return err
		}
		WriteEvictionStudy(w, s)
		return WriteEvictionCSV(w, s)
	})
	return out
}

func compareGolden(t *testing.T, label string, got map[string][]byte) {
	t.Helper()
	for name, body := range got {
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatalf("%s: reading golden %s: %v (run UPDATE_GOLDEN=1 go test ./internal/experiments -run Golden to create)", label, name, err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s: %s diverged from the committed golden — the hot path no longer preserves the draw sequence / cycle arithmetic.\n--- got ---\n%s\n--- want ---\n%s",
				label, name, body, want)
		}
	}
}

// TestGoldenArtifactsPinned is the pinned-output contract test. Skipped
// under the race detector: byte-equality needs no race coverage and the
// grids here would add many race-amplified minutes to the full-tree race
// pass; the Workers=1-vs-8 determinism contract is race-covered by
// TestFig7IdenticalAcrossWorkerCounts and friends.
func TestGoldenArtifactsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-equality contract; skipped under -race (see comment)")
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		got := renderGoldenArtifacts(t, 1, nil)
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range got {
			if err := os.WriteFile(filepath.Join(goldenDir, name), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d goldens under %s", len(got), goldenDir)
		return
	}

	// Workers=1, cold cache.
	compareGolden(t, "workers=1", renderGoldenArtifacts(t, 1, nil))

	// Workers=8, with a result cache: the first pass exercises the cold
	// path in parallel, the second replays every fig7 cell from the warm
	// cache. Both must match the goldens.
	dir := t.TempDir()
	cache, err := runner.NewCache(dir, ModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "workers=8 cold", renderGoldenArtifacts(t, 8, cache))
	warm := renderGoldenArtifacts(t, 8, cache)
	compareGolden(t, "workers=8 warm", warm)
}
