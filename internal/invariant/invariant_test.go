package invariant

import (
	"fmt"
	"strings"
	"testing"

	"hpmmap/internal/metrics"
	"hpmmap/internal/sim"
)

func TestViolationErrorFormat(t *testing.T) {
	v := &Violation{
		Check: "swap_accounting", Subsystem: "kernel", Manager: "thp",
		PID: 104, Node: 2, SimCycles: 12345, Detail: "release of 9 with 3 used",
	}
	msg := v.Error()
	for _, want := range []string{
		"invariant violation", "kernel/swap_accounting", "manager=thp",
		"pid=104", "node=2", "t=12345cyc", "release of 9 with 3 used",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
	// Minimal violation renders without the optional fields.
	min := &Violation{Check: "c", Subsystem: "s", Node: -1, Detail: "d"}
	if msg := min.Error(); strings.Contains(msg, "pid=") || strings.Contains(msg, "node=") {
		t.Errorf("minimal Error() = %q leaks unset fields", msg)
	}
}

func TestFailfPanicsWithViolation(t *testing.T) {
	defer func() {
		r := recover()
		v, ok := FromRecovered(r)
		if !ok {
			t.Fatalf("recovered %T, want *Violation", r)
		}
		if v.Check != "free_list" || v.Subsystem != "mem" || v.Detail != "frame 42 lost" {
			t.Errorf("violation = %+v", v)
		}
		if v.Node != -1 {
			t.Errorf("unset Node should normalize to -1, got %d", v.Node)
		}
	}()
	Failf("free_list", "mem", "frame %d lost", 42)
}

func TestAsUnwrapsWrappedViolation(t *testing.T) {
	inner := &Violation{Check: "c", Subsystem: "s", Node: -1, Detail: "d"}
	wrapped := fmt.Errorf("cell fig7 HPCCG/A/thp/c1#0: %w", error(inner))
	v, ok := As(wrapped)
	if !ok || v != inner {
		t.Fatalf("As(%v) = %v, %v", wrapped, v, ok)
	}
	if _, ok := As(fmt.Errorf("plain")); ok {
		t.Error("As matched a non-violation error")
	}
	if _, ok := FromRecovered("a string panic"); ok {
		t.Error("FromRecovered matched a string panic")
	}
}

func TestAnnotateTime(t *testing.T) {
	v := &Violation{}
	AnnotateTime(v, 777)
	if v.SimCycles != 777 {
		t.Errorf("SimCycles = %d, want 777", v.SimCycles)
	}
	AnnotateTime(v, 999) // already set: keep the earlier (closer) time
	if v.SimCycles != 777 {
		t.Errorf("AnnotateTime overwrote a set time: %d", v.SimCycles)
	}
	AnnotateTime(nil, 1) // nil-safe
}

func TestAuditorRunsChecksAndCountsMetrics(t *testing.T) {
	a := NewAuditor()
	reg := metrics.NewRegistry()
	a.Observe(reg)
	runs := 0
	a.AddCheck("ok_one", func() error { runs++; return nil })
	a.AddCheck("ok_two", func() error { runs++; return nil })
	if n := a.RunOnce(10); n != 2 {
		t.Fatalf("RunOnce ran %d checks, want 2", n)
	}
	if runs != 2 {
		t.Fatalf("check fns ran %d times, want 2", runs)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue(metrics.InvariantChecksTotal); got != 2 {
		t.Errorf("invariant_checks_total = %d, want 2", got)
	}
	if got := snap.CounterValue(metrics.InvariantViolationsTotal); got != 0 {
		t.Errorf("invariant_violations_total = %d, want 0", got)
	}
}

func TestAuditorPanicsWithAnnotatedViolation(t *testing.T) {
	a := NewAuditor()
	reg := metrics.NewRegistry()
	a.Observe(reg)
	a.AddCheck("healthy", func() error { return nil })
	a.AddCheck("broken", func() error {
		return Errorf("zone_accounting", "mem", "zone %d free-list total drifted", 1)
	})
	func() {
		defer func() {
			v, ok := FromRecovered(recover())
			if !ok {
				t.Fatal("auditor did not panic with a *Violation")
			}
			if v.Check != "zone_accounting" || v.Subsystem != "mem" {
				t.Errorf("violation = %+v", v)
			}
			if v.SimCycles != 4242 {
				t.Errorf("SimCycles = %d, want the audit tick time 4242", v.SimCycles)
			}
		}()
		a.RunOnce(4242)
	}()
	snap := reg.Snapshot()
	if got := snap.CounterValue(metrics.InvariantViolationsTotal); got != 1 {
		t.Errorf("invariant_violations_total = %d, want 1", got)
	}
}

func TestAuditorWrapsPlainErrors(t *testing.T) {
	a := NewAuditor()
	a.AddCheck("plain", func() error { return fmt.Errorf("something drifted") })
	defer func() {
		v, ok := FromRecovered(recover())
		if !ok {
			t.Fatal("no *Violation from a plain-error check")
		}
		if v.Check != "plain" || v.Detail != "something drifted" {
			t.Errorf("violation = %+v", v)
		}
	}()
	a.RunOnce(1)
}

func TestAuditorTickerOnEngine(t *testing.T) {
	eng := sim.NewEngine()
	a := NewAuditor()
	ticks := 0
	a.AddCheck("count", func() error { ticks++; return nil })
	a.Start(eng, 100)
	eng.Schedule(1000, func() {}) // keep the queue alive past several ticks
	eng.RunUntil(450)
	a.Stop()
	eng.Run()
	if ticks != 4 {
		t.Errorf("auditor ticked %d times in 450 cycles at period 100, want 4", ticks)
	}
}

func TestNilAuditorIsNoOp(t *testing.T) {
	var a *Auditor
	a.AddCheck("x", func() error { return fmt.Errorf("never") })
	a.Observe(metrics.NewRegistry())
	a.Start(sim.NewEngine(), 10)
	a.Stop()
	if n := a.RunOnce(1); n != 0 {
		t.Errorf("nil auditor ran %d checks", n)
	}
}

func TestReportGroupsDeterministically(t *testing.T) {
	vs := []*Violation{
		{Check: "b_check", Subsystem: "mem", Detail: "first b"},
		{Check: "a_check", Subsystem: "mem", Detail: "first a"},
		{Check: "b_check", Subsystem: "mem", Detail: "second b"},
		{Check: "a_check", Subsystem: "buddy", Detail: "buddy a"},
		nil,
	}
	r := NewReport(vs)
	if r.Total != 4 {
		t.Fatalf("Total = %d, want 4", r.Total)
	}
	var keys []string
	for _, g := range r.Groups {
		keys = append(keys, g.Subsystem+"/"+g.Check)
	}
	want := []string{"buddy/a_check", "mem/a_check", "mem/b_check"}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Errorf("group order = %v, want %v", keys, want)
	}
	for _, g := range r.Groups {
		if g.Subsystem == "mem" && g.Check == "b_check" {
			if g.Count != 2 || g.Sample.Detail != "first b" {
				t.Errorf("mem/b_check group = %+v", g)
			}
		}
	}
	if s := r.String(); !strings.Contains(s, "4 invariant violation(s)") {
		t.Errorf("Report.String() = %q", s)
	}
	if s := NewReport(nil).String(); s != "no invariant violations" {
		t.Errorf("empty report = %q", s)
	}
}
