package experiments

import (
	"context"
	"fmt"
	"io"

	"hpmmap/internal/runner"
	"hpmmap/internal/timeline"
	"hpmmap/internal/workload"
)

// Barrier noise-attribution study: run one benchmark under commodity
// interference for each memory manager with the timeline attributor
// attached, and decompose where every barrier's straggler lateness came
// from — fault service, reclaim storms, khugepaged merge blocking,
// syscall time, scheduler sharing. This is the diagnostic companion to
// the Figure 7 runtime bars: the bars show THAT the Linux managers lose
// time under load; the attribution shows WHERE the critical path lost
// it, and that HPMMAP's barriers carry no memory-management excess.

// AttributionStudyOptions configures the study.
type AttributionStudyOptions struct {
	Bench    string        // default miniMD (the Fig. 2/4 subject)
	Managers []ManagerKind // default THP, HugeTLBfs, HPMMAP
	Profile  Profile       // default A (one competing kernel build)
	Ranks    int           // default 8
	Seed     uint64
	Scale    Scale
	// Workers bounds the worker pool running the study's cells in
	// parallel; <= 0 selects runtime.NumCPU(). Summaries are
	// byte-identical at any worker count.
	Workers int
	// Context, when non-nil, cancels the study.
	Context context.Context
	// Progress receives one line per completed cell from the runner's
	// serialized sink (calls never overlap).
	Progress func(string)
	// Obs, when non-nil, collects per-cell metric snapshots and Chrome
	// trace events; with series enabled it also samples each cell.
	// Attribution cells are never cached (like the fault studies), so
	// every cell contributes fresh artifacts.
	Obs *runner.Observations
}

func (o *AttributionStudyOptions) defaults() {
	if o.Bench == "" {
		o.Bench = "miniMD"
	}
	if len(o.Managers) == 0 {
		o.Managers = []ManagerKind{THP, HugeTLBfs, HPMMAP}
	}
	if o.Profile == 0 {
		o.Profile = ProfileA
	}
	if o.Ranks == 0 {
		o.Ranks = 8
	}
	if o.Seed == 0 {
		o.Seed = 0xa77b
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
}

// AttributionCell is one manager's attributed run.
type AttributionCell struct {
	Kind       ManagerKind
	RuntimeSec float64
	Summary    timeline.Summary
}

// RunAttributionStudy executes the managers × one-profile grid as one
// runner plan and returns one attributed cell per manager, in the order
// of o.Managers.
func RunAttributionStudy(o AttributionStudyOptions) ([]AttributionCell, error) {
	o.defaults()
	spec, ok := workload.ByName(o.Bench)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", o.Bench)
	}
	plan := runner.Plan{Name: "attribution", Seed: o.Seed}
	for _, kind := range o.Managers {
		plan.Cells = append(plan.Cells, runner.Cell{
			Exp: "attribution", Bench: o.Bench, Profile: o.Profile.String(),
			Manager: kind.Key(), Cores: o.Ranks, Run: 0,
		})
	}
	type cellOut struct {
		RuntimeSec float64
		Summary    timeline.Summary
	}
	kinds := o.Managers
	cells, err := runner.Run(runner.Options{
		Workers:  o.Workers,
		Context:  o.Context,
		Progress: progressLines[any](o.Progress, nil),
		Obs:      o.Obs,
	}, plan, func(ctx context.Context, idx int, cell runner.Cell, seed uint64) (cellOut, error) {
		attr := timeline.NewAttribution(o.Ranks)
		out, err := ExecuteSingleNode(SingleRun{
			Bench:       spec,
			Kind:        kinds[idx],
			Profile:     o.Profile,
			Ranks:       o.Ranks,
			Seed:        seed,
			Scale:       o.Scale,
			Attribution: attr,
		}.InCell(ctx, o.Obs, idx, cell))
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{RuntimeSec: out.RuntimeSec, Summary: attr.Summarize()}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("attribution: %w", err)
	}
	out := make([]AttributionCell, len(cells))
	for i, c := range cells {
		out[i] = AttributionCell{Kind: kinds[i], RuntimeSec: c.RuntimeSec, Summary: c.Summary}
	}
	return out, nil
}

// WriteAttributionStudy renders the study as the report's "noise
// attribution" block: one per-manager section with runtime, then the
// summary's cause table, straggler distribution and worst barriers.
// Deterministic.
func WriteAttributionStudy(w io.Writer, cells []AttributionCell) error {
	for _, c := range cells {
		if _, err := fmt.Fprintf(w, "%s — runtime %.1f s\n", c.Kind, c.RuntimeSec); err != nil {
			return err
		}
		if err := c.Summary.WriteReport(w); err != nil {
			return err
		}
	}
	return nil
}
