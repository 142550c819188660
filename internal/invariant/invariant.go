// Package invariant is the simulation's structured consistency-failure
// layer: a Violation type that carries enough context to debug a
// simulated-state divergence (which check, which subsystem, which
// process, at what simulated time), and an opt-in Auditor that runs
// registered consistency checks at scheduler-tick boundaries.
//
// Before this package existed every simulated-state inconsistency was a
// bare panic(string) that killed a whole experiment grid with a stack
// trace and no simulation context. Now the convention is:
//
//   - Simulated-state checks (a free list that lost a frame, swap
//     accounting going negative, a mapping the walker cannot find) call
//     Failf / Fail, which panic with a *Violation. The experiment
//     harness annotates the violation with simulated time, and the
//     runner's panic containment converts it into a per-cell error —
//     errors.As(err, &v) recovers the structured record — so one bad
//     cell never takes down the grid (see runner.Options.ContinueOnError).
//   - Programmer-error checks (nil callbacks, out-of-range orders on an
//     internal API) remain bare panics: they indicate a bug in the
//     caller, not a divergence of the simulated system, and should fail
//     fast in tests. DESIGN.md §7 records the classification of every
//     panic site.
//
// The package is a dependency leaf (it imports only the sim clock and
// the metrics registry) so every simulated subsystem can use it without
// import cycles.
package invariant

import (
	"errors"
	"fmt"
	"sort"

	"hpmmap/internal/metrics"
	"hpmmap/internal/sim"
)

// Violation is a structured simulated-state consistency failure. It is
// delivered by panicking with a *Violation from the check site; the
// experiment harness fills SimCycles, and the runner's panic containment
// converts the panic into a per-cell error wrapping the violation.
type Violation struct {
	// Check names the violated invariant ("buddy_conservation",
	// "swap_accounting", "pgtable_roundtrip", ...). Lower snake case by
	// convention, so reports aggregate cleanly.
	Check string
	// Subsystem is the owning package ("mem", "buddy", "pgtable",
	// "kernel", "linuxmm", "core", "hugetlb", "sched").
	Subsystem string
	// Manager is the memory-manager key serving the affected process
	// ("thp", "hugetlbfs", "hpmmap"), when known.
	Manager string
	// PID is the affected process, when the check is process-scoped
	// (0 otherwise).
	PID int
	// Node is the cluster node index, when known (-1 otherwise).
	Node int
	// SimCycles is the simulated time of detection. Check sites may
	// leave it 0; the experiment harness fills it from the engine clock
	// as the panic unwinds (see AnnotateTime).
	SimCycles sim.Cycles
	// Detail is the human-readable specifics of the failure.
	Detail string
}

// Error renders the violation with its full context, so even a
// violation that escapes structured handling is debuggable from the
// message alone.
func (v *Violation) Error() string {
	s := fmt.Sprintf("invariant violation [%s/%s]", v.Subsystem, v.Check)
	if v.Manager != "" {
		s += " manager=" + v.Manager
	}
	if v.PID != 0 {
		s += fmt.Sprintf(" pid=%d", v.PID)
	}
	if v.Node >= 0 {
		s += fmt.Sprintf(" node=%d", v.Node)
	}
	if v.SimCycles != 0 {
		s += fmt.Sprintf(" t=%dcyc", uint64(v.SimCycles))
	}
	return s + ": " + v.Detail
}

// Fail panics with the violation (normalizing an unset Node to -1).
// Check sites call it when they have structured context to attach.
func Fail(v Violation) {
	if v.Node == 0 {
		v.Node = -1
	}
	panic(&v)
}

// Failf panics with a *Violation built from a check name, subsystem and
// formatted detail — the drop-in replacement for the old
// panic(fmt.Sprintf(...)) sites that have no process context.
func Failf(check, subsystem, format string, args ...any) {
	Fail(Violation{Check: check, Subsystem: subsystem, Detail: fmt.Sprintf(format, args...)})
}

// Errorf builds a *Violation as an error without panicking — for
// Auditor checks, which return errors and let the auditor decide how to
// surface them.
func Errorf(check, subsystem, format string, args ...any) error {
	return &Violation{Check: check, Subsystem: subsystem, Node: -1,
		Detail: fmt.Sprintf(format, args...)}
}

// As extracts the *Violation from an error chain, if any.
func As(err error) (*Violation, bool) {
	var v *Violation
	if errors.As(err, &v) {
		return v, true
	}
	return nil, false
}

// FromRecovered extracts the *Violation from a recovered panic value:
// either the *Violation itself (the Failf path) or an error wrapping
// one (a re-panicked annotated violation).
func FromRecovered(r any) (*Violation, bool) {
	switch x := r.(type) {
	case *Violation:
		return x, true
	case error:
		return As(x)
	}
	return nil, false
}

// AnnotateTime fills v.SimCycles from the clock if the check site left
// it unset. Harnesses call it in a recover/re-panic wrapper around the
// simulation loop, where the engine clock is in scope.
func AnnotateTime(v *Violation, now sim.Cycles) {
	if v != nil && v.SimCycles == 0 {
		v.SimCycles = now
	}
}

// Check is one registered consistency check. Fn returns nil when the
// invariant holds; a non-nil error (ideally a *Violation from Errorf)
// reports the divergence.
type Check struct {
	Name string
	Fn   func() error
}

// Auditor runs registered consistency checks at simulated-time
// boundaries. It is strictly opt-in: attaching an auditor schedules
// additional engine events, which legitimately changes sim_events_total
// — so baseline figure runs never enable it. A nil *Auditor is a valid
// no-op (every method nil-checks), mirroring the observability layer's
// convention.
//
// On a failed check the auditor panics with the check's *Violation
// (annotated with the current simulated time), which the experiment
// harness and runner convert into a structured per-cell error.
type Auditor struct {
	checks []Check
	ticker *sim.Ticker
	now    func() sim.Cycles

	// Metric handles (nil until Observe; nil-safe).
	checksRun  *metrics.Counter
	violations *metrics.Counter
}

// NewAuditor returns an empty auditor.
func NewAuditor() *Auditor { return &Auditor{} }

// AddCheck registers a named consistency check. No-op on a nil auditor,
// so subsystem wiring can be unconditional.
func (a *Auditor) AddCheck(name string, fn func() error) {
	if a == nil || fn == nil {
		return
	}
	a.checks = append(a.checks, Check{Name: name, Fn: fn})
}

// Observe registers the auditor's metrics (invariant_checks_total,
// invariant_violations_total) with the registry. Nil-safe on both
// sides.
func (a *Auditor) Observe(reg *metrics.Registry) {
	if a == nil || reg == nil {
		return
	}
	a.checksRun = reg.Counter(metrics.InvariantChecksTotal)
	a.violations = reg.Counter(metrics.InvariantViolationsTotal)
}

// Start schedules the auditor to run every period cycles on the engine
// (the scheduler-tick cadence). period must be > 0. No-op on a nil
// auditor.
func (a *Auditor) Start(eng *sim.Engine, period sim.Cycles) {
	if a == nil {
		return
	}
	if a.ticker != nil {
		panic("invariant: Auditor.Start called twice")
	}
	a.now = eng.Now
	a.ticker = eng.NewTicker(period, func() { a.RunOnce(eng.Now()) })
}

// Stop cancels the periodic audit. Safe to call multiple times and on a
// nil auditor.
func (a *Auditor) Stop() {
	if a != nil && a.ticker != nil {
		a.ticker.Stop()
	}
}

// RunOnce executes every registered check at the given simulated time.
// The first failing check panics with its *Violation so the grid
// machinery surfaces it as a structured per-cell error. Returns the
// number of checks run (for tests). No-op on a nil auditor.
func (a *Auditor) RunOnce(now sim.Cycles) int {
	if a == nil {
		return 0
	}
	for _, c := range a.checks {
		a.checksRun.Inc()
		err := c.Fn()
		if err == nil {
			continue
		}
		a.violations.Inc()
		v, ok := As(err)
		if !ok {
			v = &Violation{Check: c.Name, Subsystem: "audit", Node: -1, Detail: err.Error()}
		}
		if v.Check == "" {
			v.Check = c.Name
		}
		AnnotateTime(v, now)
		panic(v)
	}
	return len(a.checks)
}

// Report is a deterministic roll-up of violations collected across a
// grid (the quarantined cells of a ContinueOnError run), grouped by
// subsystem/check.
type Report struct {
	Total  int
	Groups []ReportGroup
}

// ReportGroup aggregates the violations of one subsystem/check pair.
type ReportGroup struct {
	Subsystem, Check string
	Count            int
	// Sample is the first violation of the group, for its detail text.
	Sample *Violation
}

// NewReport groups violations by (subsystem, check), sorted for
// deterministic rendering.
func NewReport(violations []*Violation) Report {
	byKey := make(map[string]*ReportGroup)
	var order []string
	for _, v := range violations {
		if v == nil {
			continue
		}
		key := v.Subsystem + "/" + v.Check
		g := byKey[key]
		if g == nil {
			g = &ReportGroup{Subsystem: v.Subsystem, Check: v.Check, Sample: v}
			byKey[key] = g
			order = append(order, key)
		}
		g.Count++
	}
	sort.Strings(order)
	r := Report{}
	for _, key := range order {
		g := byKey[key]
		r.Total += g.Count
		r.Groups = append(r.Groups, *g)
	}
	return r
}

// String renders the report as an indented block, one line per group.
func (r Report) String() string {
	if r.Total == 0 {
		return "no invariant violations"
	}
	s := fmt.Sprintf("%d invariant violation(s):", r.Total)
	for _, g := range r.Groups {
		s += fmt.Sprintf("\n  [%s/%s] x%d: %s", g.Subsystem, g.Check, g.Count, g.Sample.Detail)
	}
	return s
}
