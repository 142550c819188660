package sim

import (
	"fmt"
	"math"
	"testing"
)

// checkStdNormals fails unless StdNormals gives every pair the same bits
// through the AVX2 kernel as through the scalar loop (haveAVX2 cleared).
// It takes at most 64 pairs.
func checkStdNormals(t testing.TB, what string, u1, u2 []float64) {
	t.Helper()
	var vec, scalar [64]float64
	n := len(u1)
	StdNormals(vec[:n], u1, u2)
	haveAVX2 = false
	StdNormals(scalar[:n], u1, u2)
	haveAVX2 = true
	for i := range n {
		if math.Float64bits(vec[i]) != math.Float64bits(scalar[i]) {
			t.Fatalf("%s: pair %d of %d (u1 %v = %#x, u2 %v = %#x): kernel %v (%#x), scalar %v (%#x)",
				what, i, n, u1[i], math.Float64bits(u1[i]), u2[i], math.Float64bits(u2[i]),
				vec[i], math.Float64bits(vec[i]), scalar[i], math.Float64bits(scalar[i]))
		}
	}
}

// stdNormalsEdges returns the edge values of u1 and u2: u1's extremes
// 2^-53 and 1−2^-53, and every u1 whose mantissa is √2/2's, where
// math.Log's f1 <= √2/2 test holds with equality, with its neighbours;
// u2's 40 floats on each side of every octant boundary k/8 (0 and the
// subnormals above it included) and the largest u2.
func stdNormalsEdges(t testing.TB) (u1s, u2s []float64) {
	u1s = []float64{0x1p-53, math.Nextafter(1, 0)}
	for e := 0; e < 53; e++ {
		h := math.Ldexp(math.Sqrt2/2, -e)
		u1s = append(u1s, math.Nextafter(h, 0), h, math.Nextafter(h, 1))
	}
	octant := func(u2 float64) uint64 { return uint64(2 * math.Pi * u2 * (4 / math.Pi)) }
	for k := 0; k <= 8; k++ {
		b := float64(k) / 8
		seen := map[uint64]bool{}
		for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
			u2 := b
			for i := 0; i <= 40; i++ {
				if u2 >= 0 && u2 < 1 && (i > 0 || dir > 0) {
					u2s = append(u2s, u2)
					seen[octant(u2)] = true
				}
				u2 = math.Nextafter(u2, dir)
			}
		}
		if k > 0 && k < 8 && (!seen[uint64(k-1)] || !seen[uint64(k)]) {
			t.Fatalf("the floats around u2 = %d/8 reach octants %v, want %d and %d", k, seen, k-1, k)
		}
	}
	return u1s, append(u2s, math.Nextafter(1, 0))
}

// TestStdNormalsMatchesNormal runs 10^7 drawn pairs, in batches of 0 to
// 9 and of 64 so that the kernel's four-lane blocks end at every offset,
// and every pair of edge values through the AVX2 kernel and through the
// scalar loop, and requires the same bits. The drawn pairs also go
// through Normal on a twin generator: mean + stdev·z must have the bits
// of its draw.
func TestStdNormalsMatchesNormal(t *testing.T) {
	if !haveAVX2 {
		t.Skip("the CPU has no AVX2: StdNormals runs only the scalar loop")
	}
	lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64}
	var u1, u2, z [64]float64
	a, b := NewRand(0xb0c5), NewRand(0xb0c5)
	const mean, stdev = 2000, 950
	for pairs, round := 0, 0; pairs < 10_000_000; round++ {
		n := lens[round%len(lens)]
		a.FillNormalUniforms(u1[:n], u2[:n])
		checkStdNormals(t, fmt.Sprintf("round %d", round), u1[:n], u2[:n])
		StdNormals(z[:n], u1[:n], u2[:n])
		for i := range n {
			if got, want := mean+stdev*z[i], b.Normal(mean, stdev); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d pair %d: mean + stdev·z = %v, Normal %v", round, i, got, want)
			}
		}
		pairs += n
	}

	u1s, u2s := stdNormalsEdges(t)
	for _, v1 := range u1s {
		for lo := 0; lo < len(u2s); lo += 64 {
			n := min(len(u2s)-lo, 64)
			for i := range n {
				u1[i] = v1
			}
			checkStdNormals(t, "edge", u1[:n], u2s[lo:lo+n])
		}
	}
}

// FuzzStdNormals compares the AVX2 kernel with the scalar loop bit for bit
// at any pair in Normal's domain, the pair in all four lanes; inputs are
// folded into [0, 1) with math.Mod, and a u1 below 2^-53 is skipped.
func FuzzStdNormals(f *testing.F) {
	if !haveAVX2 {
		f.Skip("the CPU has no AVX2: StdNormals runs only the scalar loop")
	}
	f.Add(0x1p-53, 0.0)
	f.Add(math.Nextafter(1, 0), math.Nextafter(1, 0))
	f.Add(math.Sqrt2/2, 0.125)
	f.Add(math.Sqrt2/4, 0.375)
	f.Add(0.5, math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, u1, u2 float64) {
		u1, u2 = math.Abs(math.Mod(u1, 1)), math.Abs(math.Mod(u2, 1))
		if !(u1 >= 0x1p-53) || math.IsNaN(u2) {
			return
		}
		checkStdNormals(t, "fuzz", []float64{u1, u1, u1, u1}, []float64{u2, u2, u2, u2})
	})
}
