package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"hpmmap/internal/chaos"
	"hpmmap/internal/invariant"
	"hpmmap/internal/ledger"
	"hpmmap/internal/runner"
	"hpmmap/internal/stats"
	"hpmmap/internal/workload"
)

// The contention-storm study extends the paper's Figure 4/5 argument
// into the failure regime: instead of a fixed commodity antagonist
// (profile A/B kernel builds), the deterministic chaos injector sweeps
// adversarial intensity from 0 (quiet machine) to 1 (pressure spikes,
// contiguity theft, swap exhaustion, page-cache storms, mm-lock storms,
// stragglers, all at full rate) for each memory manager. The paper's
// claim predicts the outcome: HPMMAP's isolated path stays flat while
// THP and HugeTLBfs collapse, because every chaos lever operates on
// Linux's memory-management state.
//
// The study doubles as the robustness proving ground for the runner's
// degradation machinery: it is the first experiment to run with
// ContinueOnError, per-cell timeouts and the invariant auditor, so a
// poisoned cell produces an annotated hole in the table plus a
// structured violation report instead of a dead grid.

// ChaosStudyOptions configures the contention-storm study.
type ChaosStudyOptions struct {
	// Bench is the measured application (default HPCCG, the paper's
	// communication-lightest kernel — degradation is attributable to
	// memory management, not the network).
	Bench string
	// Managers to sweep (default all three).
	Managers []ManagerKind
	// Intensities is the chaos sweep axis (default 0, 0.25, 0.5, 0.75, 1).
	Intensities []float64
	// Cores is the rank count per run (default 4).
	Cores int
	// Runs per (manager, intensity) point (default 3).
	Runs  int
	Seed  uint64
	Scale Scale
	// Progress receives one line per completed cell (serialized sink).
	Progress func(string)
	Workers  int
	Context  context.Context
	// Cache, when non-nil, memoizes per-cell results through the runner,
	// keyed by the cell's coordinates and seed plus Scale, Audit and
	// PoisonCell (see Fig7Options.Cache).
	Cache *runner.Cache
	// Obs, when non-nil, collects per-cell metric snapshots and Chrome
	// trace events; cached cells replay their snapshots (see
	// Fig7Options.Obs).
	Obs *runner.Observations
	// Audit attaches the invariant auditor to every cell's node.
	Audit bool
	// ContinueOnError quarantines failed cells as annotated holes
	// instead of aborting the sweep (default on for this study — see
	// defaults()). Set DisableContinueOnError to get fail-fast.
	DisableContinueOnError bool
	// CellTimeout bounds one cell's wall clock (0 = none).
	CellTimeout time.Duration
	// PoisonCell, when > 0, arms the chaos injector's InjectViolation
	// hook in that plan cell — the end-to-end drill for the containment
	// path. The zero value (and -1) poisons nothing; defaults() maps
	// 0 to -1 so an unset options struct never arms the drill.
	PoisonCell int
}

func (o *ChaosStudyOptions) defaults() {
	if o.Bench == "" {
		o.Bench = "HPCCG"
	}
	if len(o.Managers) == 0 {
		o.Managers = []ManagerKind{HPMMAP, THP, HugeTLBfs}
	}
	if len(o.Intensities) == 0 {
		o.Intensities = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	if o.Cores == 0 {
		o.Cores = 4
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 0xc4a05
	}
	if o.PoisonCell == 0 {
		// The zero value means "not set": poisoning nothing is the safe
		// default. Callers who really want to poison cell 0 can't — pick
		// any other cell for the drill (the containment path is identical).
		o.PoisonCell = -1
	}
}

// ChaosPoint is one (manager, intensity) cell of the sweep.
type ChaosPoint struct {
	Intensity float64
	MeanSec   float64
	StdevSec  float64
	// Runs holds the per-run runtimes that completed; quarantined runs
	// are excluded (holes).
	Runs []float64
	// Failed counts quarantined runs at this point.
	Failed int
	// DegradationPct is the mean runtime increase relative to the same
	// manager's intensity-0 point (0 when the baseline is missing).
	DegradationPct float64
}

// ChaosSeries is one manager's degradation curve.
type ChaosSeries struct {
	Kind   ManagerKind
	Points []ChaosPoint
}

// ChaosStudy is the study result: the degradation curves plus the
// structured failure report of any quarantined cells.
type ChaosStudy struct {
	Bench  string
	Cores  int
	Series []ChaosSeries
	// Failures lists quarantined cells in cell-index order (empty on a
	// clean run); invariant.As reads a failure's structured violation.
	Failures []runner.CellError
}

// Report rolls the structured violations of the quarantined cells into
// a deterministic subsystem/check summary.
func (s ChaosStudy) Report() invariant.Report {
	var vs []*invariant.Violation
	for _, f := range s.Failures {
		if v, ok := invariant.As(f.Err); ok {
			vs = append(vs, v)
		}
	}
	return invariant.NewReport(vs)
}

// intensityVariant encodes the sweep coordinate into the cell's Variant
// axis (and therefore the seed derivation and the cache key).
func intensityVariant(x float64) string { return fmt.Sprintf("i%g", x) }

// ChaosStudyRun executes the contention-storm study. With
// ContinueOnError (the default), failed cells become holes: the
// returned study is complete but its points may carry Failed counts and
// the Failures list is non-empty. A non-nil error is returned only for
// whole-study failures (context cancellation, or any cell error in
// fail-fast mode).
func ChaosStudyRun(o ChaosStudyOptions) (ChaosStudy, error) {
	o.defaults()
	spec, ok := workload.ByName(o.Bench)
	if !ok {
		return ChaosStudy{}, fmt.Errorf("experiments: unknown benchmark %q", o.Bench)
	}

	type cellMeta struct {
		kind      ManagerKind
		intensity float64
	}
	plan := runner.Plan{Name: "chaos", Seed: o.Seed,
		Inputs: fmt.Sprintf("scale=%g audit=%t poison=%d", o.Scale, o.Audit, o.PoisonCell)}
	var metas []cellMeta
	for _, kind := range o.Managers {
		for _, x := range o.Intensities {
			for run := 0; run < o.Runs; run++ {
				plan.Cells = append(plan.Cells, runner.Cell{
					Exp: "chaos", Bench: o.Bench, Profile: ProfileNone.String(),
					Manager: kind.Key(), Variant: intensityVariant(x),
					Cores: o.Cores, Run: run,
				})
				metas = append(metas, cellMeta{kind: kind, intensity: x})
			}
		}
	}

	results, err := runner.Run(runner.Options{
		Workers:         o.Workers,
		Context:         o.Context,
		Progress:        progressLines(o.Progress, runtimeSuffix),
		ContinueOnError: !o.DisableContinueOnError,
		CellTimeout:     o.CellTimeout,
		Metrics:         o.Obs.PlanRegistry(),
		Cache:           o.Cache,
		Obs:             o.Obs,
	}, plan, func(ctx context.Context, idx int, cell runner.Cell, seed uint64) (runtimeCell, error) {
		cfg := chaos.DefaultConfig(metas[idx].intensity)
		cfg.InjectViolation = idx == o.PoisonCell
		out, err := ExecuteSingleNode(SingleRun{
			Bench:   spec,
			Kind:    metas[idx].kind,
			Profile: ProfileNone,
			Ranks:   o.Cores,
			Seed:    seed,
			Scale:   o.Scale,
			Chaos:   chaos.New(cfg, seed),
			Audit:   o.Audit,
		}.InCell(ctx, o.Obs, idx, cell))
		if err != nil {
			return runtimeCell{}, err
		}
		return runtimeCell{RuntimeSec: out.RuntimeSec}, nil
	})

	study := ChaosStudy{Bench: o.Bench, Cores: o.Cores}
	failed := map[int]bool{}
	if err != nil {
		ge, ok := runner.AsGridError(err)
		if !ok {
			return ChaosStudy{}, fmt.Errorf("chaos study: %w", err)
		}
		study.Failures = ge.Failures
		for _, f := range ge.Failures {
			failed[f.Index] = true
		}
	}

	// Reduce in declaration order; failed cells are holes.
	i := 0
	for _, kind := range o.Managers {
		series := ChaosSeries{Kind: kind}
		var baseMean float64
		for xi, x := range o.Intensities {
			var sample stats.Sample
			pt := ChaosPoint{Intensity: x}
			for run := 0; run < o.Runs; run++ {
				if failed[i] {
					pt.Failed++
					i++
					continue
				}
				cc := results[i]
				i++
				sample.Add(cc.RuntimeSec)
				pt.Runs = append(pt.Runs, cc.RuntimeSec)
			}
			pt.MeanSec = sample.Mean()
			pt.StdevSec = sample.Stdev()
			if xi == 0 {
				baseMean = pt.MeanSec
			} else if baseMean > 0 && len(pt.Runs) > 0 {
				pt.DegradationPct = (pt.MeanSec - baseMean) / baseMean * 100
			}
			series.Points = append(series.Points, pt)
		}
		study.Series = append(study.Series, series)
	}
	return study, nil
}

// WriteChaosStudy renders the degradation table with annotated holes
// and, when cells were quarantined, the structured failure report.
func WriteChaosStudy(w io.Writer, s ChaosStudy) {
	fmt.Fprintf(w, "=== Contention-storm study: %s, %d ranks, chaos intensity sweep ===\n", s.Bench, s.Cores)
	fmt.Fprintf(w, "%-18s", "intensity")
	if len(s.Series) > 0 {
		for _, pt := range s.Series[0].Points {
			fmt.Fprintf(w, " %14s", fmt.Sprintf("%.2f", pt.Intensity))
		}
	}
	fmt.Fprintln(w)
	for _, series := range s.Series {
		fmt.Fprintf(w, "%-18s", series.Kind.String())
		for _, pt := range series.Points {
			cellStr := "—" // all runs of this point quarantined
			if len(pt.Runs) > 0 {
				cellStr = fmt.Sprintf("%.1fs", pt.MeanSec)
				if pt.Intensity > 0 {
					cellStr += fmt.Sprintf(" %+.0f%%", pt.DegradationPct)
				}
				if pt.Failed > 0 {
					cellStr += fmt.Sprintf(" [%d hole]", pt.Failed)
				}
			}
			fmt.Fprintf(w, " %14s", cellStr)
		}
		fmt.Fprintln(w)
	}
	if len(s.Failures) > 0 {
		fmt.Fprintf(w, "\nquarantined cells (%d):\n", len(s.Failures))
		for _, f := range s.Failures {
			err := f.Err
			if v, ok := invariant.As(err); ok {
				err = v
			}
			fmt.Fprintf(w, "  #%d %s: %s\n", f.Index, f.Cell, ledger.FirstLine(err))
		}
		fmt.Fprintf(w, "\n%s\n", s.Report())
	}
}
