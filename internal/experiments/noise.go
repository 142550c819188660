package experiments

import (
	"context"
	"fmt"

	"hpmmap/internal/kernel"
	"hpmmap/internal/runner"
	"hpmmap/internal/sim"
	"hpmmap/internal/workload"
)

// Noise-injection study, after Ferreira/Bridges/Brightwell (SC'08), the
// methodology behind the paper's OS-noise argument: inject synthetic
// detours of a fixed duration into ranks of a bulk-synchronous
// application and measure how the slowdown amplifies with rank count.
// khugepaged's unsynchronized merges are exactly such a noise source;
// this study isolates the amplification mechanism from the memory system
// by running under HPMMAP (no faults, no merges) and injecting noise
// explicitly.

// NoisePoint is one rank count's measurement.
type NoisePoint struct {
	Ranks int
	// BaseSec is the noise-free runtime; NoisySec with injection.
	BaseSec, NoisySec float64
	// SlowdownSec is the absolute cost of the injected noise.
	SlowdownSec float64
	// Amplification is SlowdownSec divided by the expected single-rank
	// noise cost — 1.0 means no amplification; the BSP bound for
	// per-iteration Bernoulli noise at probability p approaches
	// (1-(1-p)^ranks)/p as ranks grow.
	Amplification float64
}

// NoiseStudyOptions configures the injection.
type NoiseStudyOptions struct {
	// Prob is the per-rank, per-iteration probability of a noise event.
	Prob float64
	// DurationCycles is the detour length (the paper's merges hold the mm
	// lock for ~1–3M cycles).
	DurationCycles sim.Cycles
	RankCounts     []int
	Seed           uint64
	Scale          Scale
	// Workers bounds the worker pool running the study's cells in
	// parallel; <= 0 selects runtime.NumCPU().
	Workers int
	// Context, when non-nil, cancels the study.
	Context context.Context
	// Progress receives one line per completed cell from the runner's
	// serialized sink (calls never overlap).
	Progress func(string)
	// Obs, when non-nil, collects per-cell metric snapshots and Chrome
	// trace events; with series enabled it also samples each cell.
	// Noise cells are never cached, so every cell contributes fresh
	// artifacts.
	Obs *runner.Observations
}

func (o *NoiseStudyOptions) defaults() {
	if o.Prob == 0 {
		o.Prob = 0.15
	}
	if o.DurationCycles == 0 {
		// Default detours sit well above the scheduler's natural jitter,
		// like the coarse noise settings of the SC'08 study (noise below
		// the natural iteration imbalance is absorbed — also measurable
		// here by passing a smaller duration).
		o.DurationCycles = 150_000_000
	}
	if len(o.RankCounts) == 0 {
		o.RankCounts = []int{1, 2, 4, 8}
	}
	if o.Seed == 0 {
		o.Seed = 0x4015e
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
}

// noiseVariants are the study's two conditions per rank count.
var noiseVariants = []string{"base", "noisy"}

// NoiseStudy measures BSP noise amplification on the single-node testbed.
// The rank-count × {base, noisy} grid executes as one runner plan. The
// base and noisy cells of a rank count share one engine seed (derived
// from the variant-less coordinates) so they differ only in the injected
// detours; the noise stream itself is seeded from the noisy cell's own
// coordinate-derived seed.
func NoiseStudy(o NoiseStudyOptions) ([]NoisePoint, error) {
	o.defaults()
	plan := runner.Plan{Name: "noise", Seed: o.Seed}
	for _, ranks := range o.RankCounts {
		for _, variant := range noiseVariants {
			plan.Cells = append(plan.Cells, runner.Cell{
				Exp: "noise", Bench: "HPCCG", Manager: HPMMAP.Key(),
				Variant: variant, Cores: ranks,
			})
		}
	}
	secs, err := runner.Run(runner.Options{
		Workers:  o.Workers,
		Context:  o.Context,
		Progress: progressLines[any](o.Progress, nil),
		Obs:      o.Obs,
	}, plan, func(ctx context.Context, idx int, cell runner.Cell, seed uint64) (float64, error) {
		// Both variants of a rank count boot the same engine stream.
		engineCell := cell
		engineCell.Variant = ""
		rs := SingleRun{
			Bench: workload.HPCCG(), Kind: HPMMAP, Profile: ProfileNone,
			Ranks: cell.Cores, Seed: engineCell.Seed(o.Seed), Scale: o.Scale,
		}
		if cell.Variant == "noisy" {
			rnd := sim.NewRand(seed) // the noisy cell's own substream
			rs.CommDelay = func(iter, rank int) sim.Cycles {
				if rnd.Bool(o.Prob) {
					return o.DurationCycles
				}
				return 0
			}
		}
		out, err := ExecuteSingleNode(rs.InCell(ctx, o.Obs, idx, cell))
		return out.RuntimeSec, err
	})
	if err != nil {
		return nil, fmt.Errorf("noise: %w", err)
	}

	iters := scaleSpec(workload.HPCCG(), o.Scale).Iterations
	expected := o.Prob * float64(iters) * float64(o.DurationCycles) / kernel.DellR415().ClockHz
	var out []NoisePoint
	for i, ranks := range o.RankCounts {
		base, noisy := secs[2*i], secs[2*i+1]
		slow := noisy - base
		amp := 0.0
		if expected > 0 {
			amp = slow / expected
		}
		out = append(out, NoisePoint{
			Ranks: ranks, BaseSec: base, NoisySec: noisy,
			SlowdownSec: slow, Amplification: amp,
		})
	}
	return out, nil
}

// WriteNoiseStudy renders the study.
func WriteNoiseStudy(points []NoisePoint) string {
	s := fmt.Sprintf("%6s %12s %12s %12s %14s\n", "ranks", "base (s)", "noisy (s)", "cost (s)", "amplification")
	for _, p := range points {
		s += fmt.Sprintf("%6d %12.1f %12.1f %12.1f %13.2fx\n",
			p.Ranks, p.BaseSec, p.NoisySec, p.SlowdownSec, p.Amplification)
	}
	return s
}
