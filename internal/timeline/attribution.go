package timeline

import (
	"fmt"
	"io"
	"sort"

	"hpmmap/internal/metrics"
	"hpmmap/internal/sim"
)

// BarrierRecord is one barrier interval's critical-path decomposition:
// which rank arrived last, how late it was against the earliest arrival,
// and where its interval time went relative to the fastest rank.
type BarrierRecord struct {
	// Index is the barrier's sequence number within the run (0-based).
	Index int `json:"index"`
	// Release is the simulated cycle the barrier released (= the
	// straggler's arrival).
	Release sim.Cycles `json:"release"`
	// Straggler is the rank that arrived last and released the barrier.
	Straggler int `json:"straggler"`
	// Lateness is the straggler's arrival minus the earliest arrival —
	// the wait the straggler inflicted on the fastest rank.
	Lateness sim.Cycles `json:"lateness"`
	// TotalWait is the sum over all participating ranks of
	// (release - arrival): exactly the cycles this barrier contributed to
	// the bsp_barrier_wait_cycles histogram.
	TotalWait uint64 `json:"total_wait"`
	// Causes is the straggler's per-cause interval window (cycles charged
	// since the previous barrier).
	Causes [NumCauses]int64 `json:"causes"`
	// Excess is, per cause, the straggler's window minus the minimum
	// window across all participating ranks: the straggler's extra
	// exposure to that cause. The positive entries explain the lateness;
	// the residual (Lateness - sum of positive Excess) is compute-side
	// variation the accounts do not model (CPU sharing of the compute
	// phase itself).
	Excess [NumCauses]int64 `json:"excess"`
}

// DominantCause returns the cause with the largest positive excess, or
// ok=false when no cause shows positive excess (a balanced barrier).
// Ties break toward the lower-numbered (report-order) cause.
func (r BarrierRecord) DominantCause() (Cause, bool) {
	best, bestV := Cause(0), int64(0)
	ok := false
	for c := 0; c < NumCauses; c++ {
		if r.Excess[c] > bestV {
			best, bestV = Cause(c), r.Excess[c]
			ok = true
		}
	}
	return best, ok
}

// ExplainedFraction returns the share of the lateness covered by
// positive per-cause excess, clamped to [0, 1].
func (r BarrierRecord) ExplainedFraction() float64 {
	if r.Lateness == 0 {
		return 0
	}
	var pos int64
	for _, v := range r.Excess {
		if v > 0 {
			pos += v
		}
	}
	f := float64(pos) / float64(r.Lateness)
	if f > 1 {
		f = 1
	}
	return f
}

// Attribution is the barrier critical-path attributor for one
// application run: it owns one Account per rank (installed on the rank's
// process by the workload layer) and, at every barrier release, records
// who straggled and why. A nil *Attribution disables attribution; every
// method is nil-safe.
type Attribution struct {
	accounts   []*Account
	records    []BarrierRecord
	totalWait  uint64
	stragglers *metrics.Counter
	lateness   *metrics.Histogram
}

// NewAttribution returns an attributor for ranks ranks.
func NewAttribution(ranks int) *Attribution {
	a := &Attribution{accounts: make([]*Account, ranks)}
	for i := range a.accounts {
		a.accounts[i] = &Account{}
	}
	return a
}

// Rank returns rank i's account (nil on a nil receiver or out-of-range
// rank, which downstream charge sites treat as "off").
func (a *Attribution) Rank(i int) *Account {
	if a == nil || i < 0 || i >= len(a.accounts) {
		return nil
	}
	return a.accounts[i]
}

// Observe attaches metric handles: bsp_stragglers_total counts barriers
// with nonzero lateness and bsp_straggler_lateness_cycles distributes
// the per-barrier lateness. Registered only when an attributor is
// attached, so baseline runs' snapshots are unchanged. No-op on a nil
// receiver; a nil registry leaves the handles on their no-op defaults.
func (a *Attribution) Observe(reg *metrics.Registry) {
	if a == nil || reg == nil {
		return
	}
	a.stragglers = reg.Counter(metrics.BSPStragglersTotal)
	a.lateness = reg.Histogram(metrics.BSPStragglerLatenessCycles)
}

// RecordBarrier closes one barrier interval: ranks/arrivedAt list the
// participating ranks in arrival order (the last entry released the
// barrier), release is the release cycle. It decomposes the straggler's
// lateness against the fastest rank's per-cause window, marks every
// participant's account so the next interval starts clean, and returns
// the record (also retained for Summary). No-op (zero record) on a nil
// receiver.
func (a *Attribution) RecordBarrier(release sim.Cycles, ranks []int, arrivedAt []sim.Cycles) BarrierRecord {
	if a == nil || len(ranks) == 0 {
		return BarrierRecord{}
	}
	rec := BarrierRecord{Index: len(a.records), Release: release}
	rec.Straggler = ranks[len(ranks)-1]
	earliest := arrivedAt[0]
	for _, at := range arrivedAt {
		if at < earliest {
			earliest = at
		}
		rec.TotalWait += uint64(release - at)
	}
	rec.Lateness = release - earliest

	// Straggler window vs the minimum window across participants.
	var minW [NumCauses]int64
	first := true
	for _, r := range ranks {
		w := a.Rank(r).Window()
		if r == rec.Straggler {
			rec.Causes = w
		}
		if first {
			minW = w
			first = false
			continue
		}
		for c := range w {
			if w[c] < minW[c] {
				minW[c] = w[c]
			}
		}
	}
	for c := range rec.Excess {
		rec.Excess[c] = rec.Causes[c] - minW[c]
	}
	for _, r := range ranks {
		a.Rank(r).Mark()
	}

	a.totalWait += rec.TotalWait
	if rec.Lateness > 0 {
		a.stragglers.Inc()
	}
	a.lateness.Observe(uint64(rec.Lateness))
	a.records = append(a.records, rec)
	return rec
}

// TotalWait returns the sum of every recorded barrier's TotalWait. When
// metrics are attached to the same run, this equals the
// bsp_barrier_wait_cycles histogram sum exactly (the conservation
// contract; see the doc). 0 on a nil receiver.
func (a *Attribution) TotalWait() uint64 {
	if a == nil {
		return 0
	}
	return a.totalWait
}

// Records returns the recorded barriers in barrier order (nil on a nil
// receiver). The slice is owned by the attributor; do not mutate.
func (a *Attribution) Records() []BarrierRecord {
	if a == nil {
		return nil
	}
	return a.records
}

// Summary is the deterministic aggregate of one run's barrier records,
// small enough to return through the experiment runner and render in
// reports.
type Summary struct {
	// Barriers counts recorded barrier releases.
	Barriers int `json:"barriers"`
	// TotalWait is the run's total barrier wait (all ranks, all
	// barriers) — reconciles with bsp_barrier_wait_cycles.
	TotalWait uint64 `json:"total_wait"`
	// TotalLateness sums per-barrier straggler lateness.
	TotalLateness uint64 `json:"total_lateness"`
	// CauseExcess sums, per cause, the positive excess across barriers:
	// the cycles of lateness that cause explains.
	CauseExcess [NumCauses]int64 `json:"cause_excess"`
	// DominantCount counts, per cause, the barriers it dominated.
	DominantCount [NumCauses]uint64 `json:"dominant_count"`
	// Balanced counts barriers with no positive excess (no straggler
	// story: all ranks paid the same).
	Balanced uint64 `json:"balanced"`
	// StragglerCount counts, per rank, how often it straggled.
	StragglerCount []uint64 `json:"straggler_count"`
	// Worst holds the highest-lateness barriers (up to 5), sorted by
	// lateness descending then barrier index ascending.
	Worst []BarrierRecord `json:"worst,omitempty"`
}

// Summarize folds the recorded barriers into a Summary. Safe on a nil
// receiver (returns the zero summary).
func (a *Attribution) Summarize() Summary {
	var s Summary
	if a == nil {
		return s
	}
	s.Barriers = len(a.records)
	s.TotalWait = a.totalWait
	s.StragglerCount = make([]uint64, len(a.accounts))
	for _, rec := range a.records {
		s.TotalLateness += uint64(rec.Lateness)
		if rec.Straggler < len(s.StragglerCount) {
			s.StragglerCount[rec.Straggler]++
		}
		if dom, ok := rec.DominantCause(); ok {
			s.DominantCount[dom]++
		} else {
			s.Balanced++
		}
		for c, v := range rec.Excess {
			if v > 0 {
				s.CauseExcess[c] += v
			}
		}
	}
	worst := append([]BarrierRecord(nil), a.records...)
	sort.Slice(worst, func(i, j int) bool {
		if worst[i].Lateness != worst[j].Lateness {
			return worst[i].Lateness > worst[j].Lateness
		}
		return worst[i].Index < worst[j].Index
	})
	if len(worst) > 5 {
		worst = worst[:5]
	}
	s.Worst = worst
	return s
}

// DominantCause returns the cause explaining the most lateness across
// the whole run, or ok=false when nothing showed positive excess.
func (s Summary) DominantCause() (Cause, bool) {
	best, bestV := Cause(0), int64(0)
	ok := false
	for c := 0; c < NumCauses; c++ {
		if s.CauseExcess[c] > bestV {
			best, bestV = Cause(c), s.CauseExcess[c]
			ok = true
		}
	}
	return best, ok
}

// WriteReport renders the summary as the "noise attribution" report
// block: per-cause explained lateness, dominant-cause barrier counts,
// straggler distribution, and the worst barriers. Deterministic.
func (s Summary) WriteReport(w io.Writer) error {
	if s.Barriers == 0 {
		_, err := fmt.Fprintln(w, "  no barriers recorded")
		return err
	}
	if _, err := fmt.Fprintf(w, "  barriers %d  total wait %d cycles  total straggler lateness %d cycles\n",
		s.Barriers, s.TotalWait, s.TotalLateness); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-22s %18s %10s %9s\n", "cause", "explained cycles", "share", "dominant"); err != nil {
		return err
	}
	for c := 0; c < NumCauses; c++ {
		if s.CauseExcess[c] <= 0 && s.DominantCount[c] == 0 {
			continue
		}
		share := 0.0
		if s.TotalLateness > 0 {
			share = float64(s.CauseExcess[c]) / float64(s.TotalLateness)
		}
		if _, err := fmt.Fprintf(w, "  %-22s %18d %9.1f%% %9d\n",
			Cause(c).String(), s.CauseExcess[c], share*100, s.DominantCount[c]); err != nil {
			return err
		}
	}
	if s.Balanced > 0 {
		if _, err := fmt.Fprintf(w, "  %-22s %18s %10s %9d\n", "(balanced)", "-", "-", s.Balanced); err != nil {
			return err
		}
	}
	if n := len(s.StragglerCount); n > 0 {
		if _, err := fmt.Fprint(w, "  stragglers by rank:"); err != nil {
			return err
		}
		for r, cnt := range s.StragglerCount {
			if _, err := fmt.Fprintf(w, " r%d=%d", r, cnt); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, rec := range s.Worst {
		name := "(balanced)"
		if dom, ok := rec.DominantCause(); ok {
			name = dom.String()
		}
		if _, err := fmt.Fprintf(w, "  worst: barrier %d rank %d late %d cycles, %4.0f%% explained, dominant %s\n",
			rec.Index, rec.Straggler, uint64(rec.Lateness), rec.ExplainedFraction()*100, name); err != nil {
			return err
		}
	}
	return nil
}
