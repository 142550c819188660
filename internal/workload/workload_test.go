package workload

import (
	"testing"

	"hpmmap/internal/core"
	"hpmmap/internal/fault"
	"hpmmap/internal/hugetlb"
	"hpmmap/internal/kernel"
	"hpmmap/internal/linuxmm"
	"hpmmap/internal/sim"
	"hpmmap/internal/trace"
	"hpmmap/internal/vma"
)

// tinySpec shrinks a benchmark for fast tests.
func tinySpec(s AppSpec) AppSpec {
	s.FootprintPerRank = 96 << 20
	s.Iterations = 10
	s.ComputePerIter = 50_000_000
	s.AccessesPerIter = 100_000
	s.ChurnPerIter = 4 << 20
	s.HeapChurnPerIter = 64 << 10
	s.SetupSteps = 4
	return s
}

type rig struct {
	eng  *sim.Engine
	node *kernel.Node
	hp   *core.Manager
	mgr  *linuxmm.Manager
}

// newRig builds a node under one of the paper's three configurations.
func newRig(t *testing.T, config string, seed uint64) *rig {
	t.Helper()
	eng := sim.NewEngine()
	node := kernel.NewNode(kernel.DellR415(), eng, sim.NewRand(seed))
	r := &rig{eng: eng, node: node}
	switch config {
	case "thp":
		r.mgr = linuxmm.New(node, linuxmm.ModeTHP, linuxmm.ModeTHP, nil)
		node.SetDefaultMM(r.mgr)
	case "hugetlbfs":
		pools, err := hugetlb.Reserve(node.Mem, 12<<30)
		if err != nil {
			t.Fatal(err)
		}
		r.mgr = linuxmm.New(node, linuxmm.ModeHugeTLB, linuxmm.Mode4KOnly, pools)
		node.SetDefaultMM(r.mgr)
	case "hpmmap":
		r.mgr = linuxmm.New(node, linuxmm.ModeTHP, linuxmm.ModeTHP, nil)
		node.SetDefaultMM(r.mgr)
		hp, err := core.Install(node, 12<<30)
		if err != nil {
			t.Fatal(err)
		}
		r.hp = hp
	default:
		t.Fatalf("bad config %q", config)
	}
	return r
}

func (r *rig) launcher() Launcher {
	if r.hp != nil {
		return r.hp.Launch
	}
	return func(name string, zone int) (*kernel.Process, error) {
		return r.node.NewProcess(name, false, zone)
	}
}

// runTiny runs a 2-rank tiny app and returns the result.
func runTiny(t *testing.T, config string, spec AppSpec, rec *trace.Recorder) Result {
	t.Helper()
	r := newRig(t, config, 99)
	var res Result
	done := false
	_, err := Start(r.eng, Options{
		Spec: spec,
		Ranks: []RankPlacement{
			{Node: r.node, Core: 0, Launch: r.launcher()},
			{Node: r.node, Core: 6, Launch: r.launcher()},
		},
		Recorder: rec,
	}, func(got Result) { res = got; done = true })
	if err != nil {
		t.Fatal(err)
	}
	for !done && r.eng.Step() {
	}
	if !done {
		t.Fatal("app did not complete")
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

func TestAppCompletesUnderAllManagers(t *testing.T) {
	for _, cfg := range []string{"thp", "hugetlbfs", "hpmmap"} {
		res := runTiny(t, cfg, tinySpec(HPCCG()), nil)
		if res.Runtime == 0 {
			t.Fatalf("%s: zero runtime", cfg)
		}
		for i, rr := range res.Ranks {
			if rr.Runtime == 0 {
				t.Fatalf("%s: rank %d zero runtime", cfg, i)
			}
		}
	}
}

func TestFaultProfilesByManager(t *testing.T) {
	thp := runTiny(t, "thp", tinySpec(MiniMD()), nil)
	ht := runTiny(t, "hugetlbfs", tinySpec(MiniMD()), nil)
	hp := runTiny(t, "hpmmap", tinySpec(MiniMD()), nil)

	tf := thp.Ranks[0].Faults
	hf := ht.Ranks[0].Faults
	pf := hp.Ranks[0].Faults

	// THP: many small faults (heap), some large (arrays).
	if tf.Faults[fault.KindSmall] == 0 || tf.Faults[fault.KindLarge] == 0 {
		t.Fatalf("thp faults: %+v", tf.Faults)
	}
	// HugeTLBfs: slab faults, far fewer small faults than THP.
	if hf.Faults[fault.KindHugeTLBLarge] == 0 {
		t.Fatalf("hugetlbfs faults: %+v", hf.Faults)
	}
	if hf.Faults[fault.KindHugeTLBSmall] >= tf.Faults[fault.KindSmall] {
		t.Fatalf("hugetlbfs small faults %d vs thp %d", hf.Faults[fault.KindHugeTLBSmall], tf.Faults[fault.KindSmall])
	}
	// HPMMAP: structurally zero.
	if pf.TotalFaults() != 0 {
		t.Fatalf("hpmmap faults: %+v", pf.Faults)
	}
}

func TestHPMMAPFastestOnLoadedNode(t *testing.T) {
	// Large enough that THP's 4KB-mapped heap costs real TLB overhead,
	// so the managers separate above run-to-run jitter.
	spec := tinySpec(MiniFE())
	spec.FootprintPerRank = 512 << 20
	spec.Iterations = 20
	spec.ComputePerIter = 200_000_000
	spec.AccessesPerIter = 5_000_000
	run := func(cfg string) sim.Cycles {
		r := newRig(t, cfg, 7)
		b := StartBuild(r.node, KernelBuild(8), 3)
		var res Result
		done := false
		_, err := Start(r.eng, Options{
			Spec: spec,
			Ranks: []RankPlacement{
				{Node: r.node, Core: 0, Launch: r.launcher()},
				{Node: r.node, Core: 6, Launch: r.launcher()},
			},
		}, func(got Result) { res = got; b.Stop(); done = true })
		if err != nil {
			t.Fatal(err)
		}
		for !done && r.eng.Step() {
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Runtime
	}
	thp := run("thp")
	hp := run("hpmmap")
	if hp >= thp {
		t.Fatalf("hpmmap %d not faster than thp %d under load", hp, thp)
	}
}

func TestRecorderCapturesTimeline(t *testing.T) {
	rec := trace.NewRecorder()
	runTiny(t, "thp", tinySpec(HPCCG()), rec)
	if rec.Len() == 0 {
		t.Fatal("recorder empty")
	}
	// Faults must span the run, not cluster at t=0 (churn keeps the
	// fault path active).
	recs := rec.Records()
	first, last := recs[0].At, recs[0].At
	for _, rc := range recs {
		if rc.At < first {
			first = rc.At
		}
		if rc.At > last {
			last = rc.At
		}
	}
	if last-first == 0 {
		t.Fatal("all faults at one instant")
	}
}

func TestBuildRunsAndStops(t *testing.T) {
	r := newRig(t, "thp", 5)
	b := StartBuild(r.node, KernelBuild(4), 11)
	r.eng.RunUntil(sim.Cycles(5 * 2.2e9)) // 5 simulated seconds
	if b.Compiles == 0 {
		t.Fatal("no compiles finished in 5s")
	}
	b.Stop()
	done := b.Compiles
	r.eng.RunUntil(sim.Cycles(10 * 2.2e9))
	// At most the in-flight compiles finish after Stop.
	if b.Compiles > done+uint64(b.spec.Workers) {
		t.Fatalf("build kept compiling after Stop: %d -> %d", done, b.Compiles)
	}
}

func TestBuildCreatesMemoryPressure(t *testing.T) {
	r := newRig(t, "thp", 5)
	StartBuild(r.node, KernelBuild(8), 11)
	r.eng.RunUntil(sim.Cycles(10 * 2.2e9))
	if r.node.PageCachePages(0)+r.node.PageCachePages(1) == 0 {
		t.Fatal("build generated no page cache")
	}
	if r.mgr.LargeFaults == 0 && r.mgr.SmallFaults == 0 {
		t.Fatal("build generated no faults")
	}
}

func TestSpecLookup(t *testing.T) {
	for _, name := range []string{"HPCCG", "CoMD", "miniMD", "miniFE", "LAMMPS"} {
		s, ok := ByName(name)
		if !ok || s.Name != name {
			t.Fatalf("ByName(%q) = %+v, %v", name, s, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown benchmark resolved")
	}
}

func TestMemoryOverheadShape(t *testing.T) {
	r := newRig(t, "thp", 3)
	p, err := r.node.NewProcess("x", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := HPCCG()
	if got := MemoryOverhead(r.node, p, spec); got != 0 {
		t.Fatalf("overhead with nothing resident: %d", got)
	}
	// All-small residency must cost far more than all-large.
	p.ResidentSmall = 1 << 30
	small := MemoryOverhead(r.node, p, spec)
	p.ResidentSmall = 0
	p.ResidentLarge = 1 << 30
	large := MemoryOverhead(r.node, p, spec)
	if small < 5*large {
		t.Fatalf("4K overhead %d not >> 2M overhead %d", small, large)
	}
	// Remote residency adds cost.
	p.ResidentRemote = 1 << 29
	remote := MemoryOverhead(r.node, p, spec)
	if remote <= large {
		t.Fatal("remote residency did not add overhead")
	}
}

func TestStartValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := Start(eng, Options{}, nil); err == nil {
		t.Fatal("Start with no ranks succeeded")
	}
}

func TestAnalyticsRunsAndStops(t *testing.T) {
	r := newRig(t, "thp", 21)
	spec := VizPipeline()
	spec.SnapshotBytes = 256 << 20
	spec.PeriodCycles = sim.Cycles(1 * 2.2e9)
	spec.ComputePerPass = 200_000_000
	a := StartAnalytics(r.node, spec, 5)
	r.eng.RunUntil(sim.Cycles(10 * 2.2e9))
	if a.Passes == 0 {
		t.Fatal("no analysis passes in 10 simulated seconds")
	}
	if r.node.PageCachePages(0)+r.node.PageCachePages(1) == 0 {
		t.Fatal("analytics produced no output cache")
	}
	a.Stop()
	done := a.Passes
	r.eng.RunUntil(sim.Cycles(20 * 2.2e9))
	if a.Passes > done+uint64(spec.Pipelines) {
		t.Fatalf("analytics kept running after Stop: %d -> %d", done, a.Passes)
	}
}

func TestAnalyticsPulsesDoNotTouchHPMMAPApp(t *testing.T) {
	r := newRig(t, "hpmmap", 23)
	spec := VizPipeline()
	spec.SnapshotBytes = 512 << 20
	StartAnalytics(r.node, spec, 5)
	var res Result
	done := false
	app := tinySpec(HPCCG())
	_, err := Start(r.eng, Options{
		Spec: app,
		Ranks: []RankPlacement{
			{Node: r.node, Core: 0, Launch: r.launcher()},
			{Node: r.node, Core: 6, Launch: r.launcher()},
		},
	}, func(got Result) { res = got; done = true })
	if err != nil {
		t.Fatal(err)
	}
	for !done && r.eng.Step() {
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, rr := range res.Ranks {
		if rr.Faults.TotalFaults() != 0 {
			t.Fatalf("analytics pressure leaked into the HPMMAP app: %+v", rr.Faults)
		}
	}
}

func TestBSPAmplifiesSlowestRank(t *testing.T) {
	// One rank with injected per-iteration delay gates the whole job:
	// iteration time is the max across ranks (noise amplification).
	run := func(delay sim.Cycles) sim.Cycles {
		r := newRig(t, "hpmmap", 31)
		spec := tinySpec(HPCCG())
		var res Result
		done := false
		_, err := Start(r.eng, Options{
			Spec: spec,
			Ranks: []RankPlacement{
				{Node: r.node, Core: 0, Launch: r.launcher()},
				{Node: r.node, Core: 1, Launch: r.launcher()},
				{Node: r.node, Core: 6, Launch: r.launcher()},
				{Node: r.node, Core: 7, Launch: r.launcher()},
			},
			CommDelay: func(iter, rank int) sim.Cycles {
				if rank == 2 {
					return delay
				}
				return 0
			},
		}, func(got Result) { res = got; done = true })
		if err != nil {
			t.Fatal(err)
		}
		for !done && r.eng.Step() {
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Runtime
	}
	base := run(0)
	noisy := run(20_000_000) // 20M cycles of noise on one rank per iteration
	slowdown := noisy - base
	spec := tinySpec(HPCCG())
	wantMin := sim.Cycles(spec.Iterations-1) * 18_000_000
	if slowdown < wantMin {
		t.Fatalf("one slow rank cost %d cycles total, want >= %d (full amplification)", slowdown, wantMin)
	}
}

func TestWeakScalingRuntimeBands(t *testing.T) {
	// Sanity: at full-scale parameters the five benchmarks land in the
	// paper's runtime bands on an otherwise idle node under HPMMAP.
	if testing.Short() {
		t.Skip("full-scale runs")
	}
	bands := map[string][2]float64{
		"HPCCG":  {50, 130},
		"CoMD":   {200, 360},
		"miniMD": {250, 420},
		"miniFE": {60, 140},
		"LAMMPS": {100, 200},
	}
	for name, band := range bands {
		spec, _ := ByName(name)
		r := newRig(t, "hpmmap", 61)
		var res Result
		done := false
		_, err := Start(r.eng, Options{
			Spec: spec,
			Ranks: []RankPlacement{
				{Node: r.node, Core: 0, Launch: r.launcher()},
				{Node: r.node, Core: 6, Launch: r.launcher()},
			},
		}, func(got Result) { res = got; done = true })
		if err != nil {
			t.Fatal(err)
		}
		for !done && r.eng.Step() {
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		sec := float64(res.Runtime) / 2.2e9
		if sec < band[0] || sec > band[1] {
			t.Errorf("%s runtime %.1fs outside paper band [%.0f, %.0f]", name, sec, band[0], band[1])
		}
	}
}

func TestScaleWork(t *testing.T) {
	base := HPCCG()
	s := base.ScaleWork(2)
	if s.FootprintPerRank != 2*base.FootprintPerRank ||
		s.ComputePerIter != 2*base.ComputePerIter ||
		s.AccessesPerIter != 2*base.AccessesPerIter ||
		s.ChurnPerIter != 2*base.ChurnPerIter ||
		s.SmallChurnPerIter != 2*base.SmallChurnPerIter ||
		s.CommBytesPerIter != 2*base.CommBytesPerIter {
		t.Fatalf("ScaleWork(2) did not scale all terms: %+v", s)
	}
	// Iterations stay fixed: a larger input, not a longer run.
	if s.Iterations != base.Iterations {
		t.Fatal("ScaleWork changed the iteration count")
	}
}

func TestMlockAllKeepsHPMMAPLarge(t *testing.T) {
	// The paper's §II-B pitfall does not apply to HPMMAP: its memory is
	// unswappable by construction. (The facade exposes this; here we
	// check the underlying invariant that HPMMAP residency stays large.)
	r := newRig(t, "hpmmap", 41)
	p, err := r.hp.Launch("pin", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.node.Mmap(p, 64<<20, rw, vma.KindAnon); err != nil {
		t.Fatal(err)
	}
	if p.LargeFraction() != 1 {
		t.Fatal("hpmmap residency not fully large")
	}
}
