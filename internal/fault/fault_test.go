package fault

import (
	"math"
	"testing"

	"hpmmap/internal/sim"
)

var (
	noLoad   = Load{}
	modLoad  = Load{MemPressure: 0.7, BandwidthLoad: 0.5, AllocContention: 0.3}
	fullLoad = Load{MemPressure: 1, BandwidthLoad: 1, AllocContention: 1}
)

func sampleCycles(n int, f func(r *sim.Rand) sim.Cycles) (mean, stdev float64) {
	r := sim.NewRand(12345)
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := float64(f(r))
		sum += v
		sumsq += v * v
	}
	mean = sum / float64(n)
	stdev = math.Sqrt(sumsq/float64(n) - mean*mean)
	return mean, stdev
}

// The calibration anchors from the paper's Figure 2 (THP, miniMD):
// small ~1,768 unloaded / ~2,206 loaded; large ~368K / ~758K;
// merge ~1.0M / ~3.4M. We accept a generous band — the model is
// mechanistic, not a lookup table.
func TestSmallFaultCalibration(t *testing.T) {
	c := DefaultCostParams()
	mean, stdev := sampleCycles(20000, func(r *sim.Rand) sim.Cycles { return c.SmallFault(r, noLoad) })
	if mean < 1300 || mean > 2400 {
		t.Fatalf("unloaded small fault mean %.0f, want ~1768", mean)
	}
	if stdev < 400 || stdev > 1600 {
		t.Fatalf("unloaded small fault stdev %.0f, want ~993", stdev)
	}
	loaded, _ := sampleCycles(20000, func(r *sim.Rand) sim.Cycles { return c.SmallFault(r, modLoad) })
	if loaded <= mean {
		t.Fatalf("loaded small fault %.0f not above unloaded %.0f", loaded, mean)
	}
	if loaded < 1700 || loaded > 3200 {
		t.Fatalf("loaded small fault mean %.0f, want ~2206", loaded)
	}
}

func TestLargeFaultCalibration(t *testing.T) {
	c := DefaultCostParams()
	mean, _ := sampleCycles(5000, func(r *sim.Rand) sim.Cycles { return c.LargeFault(r, noLoad, false) })
	if mean < 280e3 || mean > 460e3 {
		t.Fatalf("unloaded large fault mean %.0f, want ~368K", mean)
	}
	// Under load with compaction roughly half the time.
	r := sim.NewRand(99)
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		sum += float64(c.LargeFault(r, modLoad, i%2 == 0))
	}
	loaded := sum / n
	if loaded < 560e3 || loaded > 1.0e6 {
		t.Fatalf("loaded large fault mean %.0f, want ~758K", loaded)
	}
	if loaded < 1.5*mean {
		t.Fatalf("load should roughly double large-fault cost: %.0f -> %.0f", mean, loaded)
	}
	// Large faults dwarf small ones by ~200x (the paper's headline gap).
	small, _ := sampleCycles(5000, func(r *sim.Rand) sim.Cycles { return c.SmallFault(r, noLoad) })
	if mean < 100*small {
		t.Fatalf("large/small ratio %.0f, want > 100", mean/small)
	}
}

func TestMergeDurationCalibration(t *testing.T) {
	c := DefaultCostParams()
	mean, _ := sampleCycles(5000, func(r *sim.Rand) sim.Cycles { return c.MergeDuration(r, noLoad) })
	if mean < 0.7e6 || mean > 1.5e6 {
		t.Fatalf("unloaded merge duration %.0f, want ~1.0M", mean)
	}
	loaded, lstdev := sampleCycles(5000, func(r *sim.Rand) sim.Cycles { return c.MergeDuration(r, modLoad) })
	if loaded < 2.2e6 || loaded > 5.0e6 {
		t.Fatalf("loaded merge duration %.0f, want ~3.4M", loaded)
	}
	if lstdev < 1e6 {
		t.Fatalf("loaded merge stdev %.0f, want multi-million (paper: ~4M)", lstdev)
	}
}

func TestHugeTLBLargeCalibration(t *testing.T) {
	c := DefaultCostParams()
	mean, _ := sampleCycles(5000, func(r *sim.Rand) sim.Cycles { return c.HugeTLBLargeFault(r, noLoad) })
	if mean < 500e3 || mean > 900e3 {
		t.Fatalf("hugetlb large fault mean %.0f, want ~735K", mean)
	}
	// No compaction ever: even at full load the cost stays the same order.
	loaded, _ := sampleCycles(5000, func(r *sim.Rand) sim.Cycles { return c.HugeTLBLargeFault(r, fullLoad) })
	if loaded > 3*mean {
		t.Fatalf("hugetlb large fault exploded under load: %.0f -> %.0f", mean, loaded)
	}
}

// hugeTLBSmallFault composes a 4KB fault in a HugeTLBfs-configured
// system as linuxmm charges one: the small-fault service, then with
// probability ReclaimProb a direct-reclaim stall.
func hugeTLBSmallFault(c *CostParams, r *sim.Rand, load Load) (sim.Cycles, bool) {
	cost := c.SmallFault(r, load)
	if p := c.ReclaimProb(load.MemPressure); p > 0 && r.Bool(p) {
		return cost + c.DirectReclaim(r, load), true
	}
	return cost, false
}

func TestHugeTLBSmallReclaimStorms(t *testing.T) {
	c := DefaultCostParams()
	// Unloaded: cheap, never stalls.
	r := sim.NewRand(7)
	for i := 0; i < 5000; i++ {
		cost, stalled := hugeTLBSmallFault(&c, r, noLoad)
		if stalled {
			t.Fatal("unloaded hugetlb small fault entered reclaim")
		}
		if cost > 50_000 {
			t.Fatalf("unloaded hugetlb small fault cost %d", cost)
		}
	}
	// Under heavy pressure: mean hundreds of thousands, stdev >> mean.
	var sum, sumsq float64
	stalls := 0
	const n = 50000
	heavy := Load{MemPressure: 0.97, BandwidthLoad: 0.6, AllocContention: 0.4}
	for i := 0; i < n; i++ {
		cost, stalled := hugeTLBSmallFault(&c, r, heavy)
		if stalled {
			stalls++
		}
		v := float64(cost)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	stdev := math.Sqrt(sumsq/n - mean*mean)
	if mean < 50e3 {
		t.Fatalf("pressured hugetlb small mean %.0f, want ~475K order", mean)
	}
	if stdev < 3*mean {
		t.Fatalf("pressured hugetlb small stdev %.0f vs mean %.0f; paper shows stdev >> mean", stdev, mean)
	}
	if stalls == 0 {
		t.Fatal("no reclaim storms under heavy pressure")
	}
	frac := float64(stalls) / n
	if frac > 0.16 {
		t.Fatalf("reclaim storm fraction %.3f too high", frac)
	}
}

func TestReclaimProbabilityShape(t *testing.T) {
	c := DefaultCostParams()
	if p := c.ReclaimProb(0.2); p != 0 {
		t.Fatalf("reclaim below threshold: %v", p)
	}
	if p := c.ReclaimProb(1.0); math.Abs(p-c.ReclaimProbAtFull) > 1e-12 {
		t.Fatalf("reclaim at full pressure %v, want %v", p, c.ReclaimProbAtFull)
	}
	mid := c.ReclaimProb(0.8)
	if mid <= 0 || mid >= c.ReclaimProbAtFull {
		t.Fatalf("reclaim at 0.8 pressure %v out of range", mid)
	}
}

func TestDirectReclaimBounded(t *testing.T) {
	c := DefaultCostParams()
	r := sim.NewRand(31)
	for i := 0; i < 20000; i++ {
		v := c.DirectReclaim(r, fullLoad)
		if float64(v) > c.ReclaimCap*(1+c.BandwidthContention)+1 {
			t.Fatalf("direct reclaim %d exceeds cap", v)
		}
		if v < sim.Cycles(c.ReclaimParetoXm) {
			t.Fatalf("direct reclaim %d below minimum stall", v)
		}
	}
}

func TestClearCostsScaleWithBandwidthLoad(t *testing.T) {
	c := DefaultCostParams()
	if c.Clear2MCycles(fullLoad) <= c.Clear2MCycles(noLoad) {
		t.Fatal("2M clear not slower under load")
	}
	if c.Clear4KCycles(fullLoad) <= c.Clear4KCycles(noLoad) {
		t.Fatal("4K clear not slower under load")
	}
	ratio := c.Clear2MCycles(noLoad) / c.Clear4KCycles(noLoad)
	if math.Abs(ratio-512) > 1 {
		t.Fatalf("2M/4K clear ratio %v, want 512", ratio)
	}
}

func TestKindString(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.String() == "?" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(99).String() != "?" {
		t.Fatal("unknown kind should be ?")
	}
}

func TestFaultCostsDeterministic(t *testing.T) {
	c := DefaultCostParams()
	r1, r2 := sim.NewRand(5), sim.NewRand(5)
	for i := 0; i < 100; i++ {
		if c.SmallFault(r1, modLoad) != c.SmallFault(r2, modLoad) {
			t.Fatal("fault costs nondeterministic for equal seeds")
		}
	}
}
