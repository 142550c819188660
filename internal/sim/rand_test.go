package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRandZeroSeedWorks(t *testing.T) {
	r := NewRand(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestUint64nBounds(t *testing.T) {
	r := NewRand(3)
	err := quick.Check(func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUint64nCoversRange(t *testing.T) {
	r := NewRand(9)
	seen := make([]bool, 8)
	for i := 0; i < 1000; i++ {
		seen[r.Uint64n(8)] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("value %d never drawn in 1000 tries", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRand(13)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	trues := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	if trues < 2700 || trues > 3300 {
		t.Fatalf("Bool(0.3) frequency %d/10000, want ~3000", trues)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRand(17)
	const n = 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(100, 15)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	stdev := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-100) > 0.5 {
		t.Fatalf("Normal mean = %v, want ~100", mean)
	}
	if math.Abs(stdev-15) > 0.5 {
		t.Fatalf("Normal stdev = %v, want ~15", stdev)
	}
}

func TestNormalZeroStdev(t *testing.T) {
	r := NewRand(19)
	if v := r.Normal(5, 0); v != 5 {
		t.Fatalf("Normal(5,0) = %v", v)
	}
}

func TestPositiveNormalTruncates(t *testing.T) {
	r := NewRand(23)
	for i := 0; i < 10000; i++ {
		if v := r.PositiveNormal(10, 50, 1); v < 1 {
			t.Fatalf("PositiveNormal below floor: %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(29)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(250)
	}
	mean := sum / n
	if math.Abs(mean-250) > 10 {
		t.Fatalf("Exponential mean = %v, want ~250", mean)
	}
}

func TestExponentialNonPositiveMean(t *testing.T) {
	r := NewRand(31)
	if v := r.Exponential(0); v != 0 {
		t.Fatalf("Exponential(0) = %v", v)
	}
}

func TestParetoLowerBound(t *testing.T) {
	r := NewRand(37)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(100, 1.5); v < 100 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(43)
	base := Cycles(1000)
	for i := 0; i < 10000; i++ {
		v := r.Jitter(base, 0.2)
		if v < 800 || v > 1200 {
			t.Fatalf("Jitter out of [800,1200]: %d", v)
		}
	}
	if v := r.Jitter(base, 0); v != base {
		t.Fatalf("Jitter(f=0) = %d, want %d", v, base)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRand(47)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collided %d/100 times", same)
	}
}

func TestCyclesNormalFloor(t *testing.T) {
	r := NewRand(53)
	for i := 0; i < 1000; i++ {
		if v := r.CyclesNormal(10, 100, 2); v < 2 {
			t.Fatalf("CyclesNormal below floor: %d", v)
		}
	}
}

// refNormal is Normal as it drew before boxMullerCos: the same draws and
// arithmetic through math.Cos. Normal must match it bit for bit, or every
// cost the simulator draws moves.
func refNormal(r *Rand, mean, stdev float64) float64 {
	if stdev <= 0 {
		return mean
	}
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stdev*z
}

// checkCos fails unless boxMullerCos(x) has the bits of math.Cos(x).
func checkCos(t testing.TB, what string, x float64) {
	got, want := boxMullerCos(x), math.Cos(x)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: boxMullerCos(%v) = %v (%#x), math.Cos %v (%#x)",
			what, x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestBoxMullerCosMatchesMathCos compares boxMullerCos with math.Cos bit
// for bit on a 2^20-point grid of [0, 2π), around every octant boundary,
// at the largest angle Normal can draw and at 10^7 drawn angles.
func TestBoxMullerCosMatchesMathCos(t *testing.T) {
	for k := 0; k < 1<<20; k++ {
		checkCos(t, "grid", 2*math.Pi*(float64(k)/(1<<20)))
	}
	// Near kπ/4 the reduction's octant index steps from k−1 to k; the 32
	// floats on each side of the boundary must cover that step.
	octant := func(x float64) uint64 { return uint64(x * (4 / math.Pi)) }
	for k := 0; k <= 8; k++ {
		b := float64(k) * (math.Pi / 4)
		seen := map[uint64]bool{}
		for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
			x := b
			for i := 0; i <= 32; i++ {
				if x >= 0 && x < 2*math.Pi {
					checkCos(t, fmt.Sprintf("octant boundary %d", k), x)
					seen[octant(x)] = true
				}
				x = math.Nextafter(x, dir)
			}
		}
		if k > 0 && k < 8 && (!seen[uint64(k-1)] || !seen[uint64(k)]) {
			t.Fatalf("the floats around %dπ/4 reach octants %v, want %d and %d", k, seen, k-1, k)
		}
	}
	// The largest angle Normal draws, u2 = 1 − 2^-53, is in octant 7,
	// which the odd-octant rounding takes to 8: the reduction subtracts
	// 2π and the selection must read 8 as octant 0.
	x := 2 * math.Pi * math.Nextafter(1, 0)
	if j := octant(x); j != 7 {
		t.Fatalf("octant of 2π·(1−2^-53) = %d, want 7", j)
	}
	checkCos(t, "largest u2", x)
	r := NewRand(0xc05)
	for i := 0; i < 10_000_000; i++ {
		checkCos(t, "draw", 2*math.Pi*r.Float64())
	}
}

// TestBoxMullerCosConstants pins the copy's constants to the bits of Go's
// math.cos, listed beside them in its source. The low bits of the
// high-order coefficients reach a result bit on almost no angle, so the
// comparison with math.Cos alone would miss a change there.
func TestBoxMullerCosConstants(t *testing.T) {
	got := append(append([]float64{pi4A, pi4B, pi4C}, sinCoef[:]...), cosCoef[:]...)
	want := []uint64{
		0x3fe921fb40000000, 0x3e64442d00000000, 0x3ce8469898cc5170,
		0x3de5d8fd1fd19ccd, 0xbe5ae5e5a9291f5d, 0x3ec71de3567d48a1,
		0xbf2a01a019bfdf03, 0x3f8111111110f7d0, 0xbfc5555555555548,
		0xbda8fa49a0861a9b, 0x3e21ee9d7b4e3f05, 0xbe927e4f7eac4bc6,
		0x3efa01a019c844f5, 0xbf56c16c16c14f91, 0x3fa555555555554b,
	}
	for i, v := range got {
		if math.Float64bits(v) != want[i] {
			t.Errorf("constant %d = %#x, want %#x", i, math.Float64bits(v), want[i])
		}
	}
}

// TestNormalMatchesMathCosReference draws 10^6 values each from Normal
// and CyclesNormal on three seeds and compares them bit for bit with
// refNormal, which draws through math.Cos.
func TestNormalMatchesMathCosReference(t *testing.T) {
	for _, seed := range []uint64{1, 0x7e57, 0xfa01} {
		a, b := NewRand(seed), NewRand(seed)
		for i := 0; i < 1_000_000; i++ {
			if got, want := a.Normal(100, 15), refNormal(b, 100, 15); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %#x draw %d: Normal = %v, reference %v", seed, i, got, want)
			}
			want := refNormal(b, 2000, 950)
			if want < 450 {
				want = 450
			}
			if got := a.CyclesNormal(2000, 950, 450); got != Cycles(want) {
				t.Fatalf("seed %#x draw %d: CyclesNormal = %d, reference %d", seed, i, got, Cycles(want))
			}
		}
	}
}

// FuzzBoxMullerCos compares boxMullerCos with math.Cos bit for bit at any
// angle in [0, 2π); an input outside it is folded in with math.Mod.
func FuzzBoxMullerCos(f *testing.F) {
	for k := 0; k < 8; k++ {
		f.Add(float64(k) * (math.Pi / 4))
	}
	f.Add(2 * math.Pi * math.Nextafter(1, 0))
	f.Add(math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, x float64) {
		x = math.Abs(math.Mod(x, 2*math.Pi))
		if math.IsNaN(x) {
			return
		}
		checkCos(t, "fuzz", x)
	})
}

// TestFillNormalUniformsMatchesNormal fills pairs in batches of 0 to 9
// and of 64 on three seeds and requires the pairs and the generator's
// final state of per-call draws, which a twin generator's Normal scales
// to the same bits. Every tenth batch starts with a zero u1, which both
// must redraw (the per-call draws count the redraws): xoshiro's next
// output is rotl(s[1]·5, 7)·9, so a zero s[1] makes it 0.
func TestFillNormalUniformsMatchesNormal(t *testing.T) {
	lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64}
	var u1, u2 [64]float64
	for _, seed := range []uint64{1, 0x7e57, 0xfa01} {
		a, b, c := NewRand(seed), NewRand(seed), NewRand(seed)
		redraws := 0
		for round := 0; round < 20_000; round++ {
			n := lens[round%len(lens)]
			if round%10 == 5 {
				a.s[1], b.s[1], c.s[1] = 0, 0, 0
			}
			a.FillNormalUniforms(u1[:n], u2[:n])
			for i := range n {
				w1 := b.Float64()
				for w1 == 0 {
					redraws++
					w1 = b.Float64()
				}
				w2 := b.Float64()
				if math.Float64bits(u1[i]) != math.Float64bits(w1) || math.Float64bits(u2[i]) != math.Float64bits(w2) {
					t.Fatalf("seed %#x round %d pair %d: filled (%v, %v), per-call (%v, %v)", seed, round, i, u1[i], u2[i], w1, w2)
				}
				if got, want := 100+15*stdNormal(w1, w2), c.Normal(100, 15); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %#x round %d pair %d: 100 + 15·stdNormal = %v, Normal %v", seed, round, i, got, want)
				}
			}
			if a.s != b.s || a.s != c.s {
				t.Fatalf("seed %#x round %d: state after the fill %x, per-call %x, Normal %x", seed, round, a.s, b.s, c.s)
			}
		}
		if redraws != 2_000 {
			t.Fatalf("seed %#x: %d zero u1 redrawn, want one per tenth batch, 2000", seed, redraws)
		}
	}
}
