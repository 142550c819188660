package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Rand is a small, fast, deterministic PRNG (xoshiro256** seeded via
// SplitMix64). The simulator cannot use math/rand's global state because
// independent subsystems must be able to draw from independent streams
// without perturbing each other across code changes.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from a single 64-bit seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// splitmix64 advances the SplitMix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Split returns a new generator whose stream is a deterministic function of
// this generator's state, advancing this generator once. Use it to hand
// independent streams to subsystems.
func (r *Rand) Split() *Rand { return NewRand(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	var x uint64
	x, r.s[0], r.s[1], r.s[2], r.s[3] = xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	return x
}

// xoshiro is one xoshiro256** step: the output of state (s0, s1, s2,
// s3) and the state after it.
func xoshiro(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return x, s0, s1, s2, s3
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		// Programmer error: a zero bound has no valid range.
		panic("sim: Uint64n(0) — bound must be > 0")
	}
	// Lemire's bounded generation with a rejection loop on the biased zone.
	threshold := (-n) % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		// Programmer error: a non-positive bound has no valid range.
		panic(fmt.Sprintf("sim: Intn(%d) — bound must be > 0", n))
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return unit(r.Uint64()) }

// unit maps 64 random bits to a uniform value in [0, 1): the top 53
// bits times 2^-53.
func unit(x uint64) float64 { return float64(x>>11) * (1.0 / (1 << 53)) }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box–Muller; one value per call, the pair's second
// half is discarded to keep draws independent of call sites).
func (r *Rand) Normal(mean, stdev float64) float64 {
	if stdev <= 0 {
		return mean
	}
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + stdev*stdNormal(u1, u2)
}

// stdNormal is Box–Muller's standard normal of the uniform pair (u1,
// u2), u1 in (0, 1) and u2 in [0, 1): the value Normal scales.
func stdNormal(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * boxMullerCos(2*math.Pi*u2)
}

// FillNormalUniforms fills u1 and u2, which must be at least as long as
// u1, with the uniform pairs that len(u1) successive Normal calls with a
// positive deviation draw, and advances the generator as those calls
// do: u1[i] is call i's first nonzero Float64 and u2[i] the one after
// it, so StdNormals turns the pairs into the calls' standard draws. The
// state lives in locals for the whole fill, not in r.s.
func (r *Rand) FillNormalUniforms(u1, u2 []float64) {
	u2 = u2[:len(u1)]
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var x uint64
	for i := range u1 {
		u := 0.0
		for u == 0 { // Normal redraws a zero u1
			x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			u = unit(x)
		}
		u1[i] = u
		x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		u2[i] = unit(x)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Go's math.cos kernel (Cephes sin.c): π/4 in three parts for the
// Cody–Waite reduction, and the sine and cosine polynomial coefficients.
const (
	pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000
	pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170
)

var (
	sinCoef = [...]float64{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	}
	cosCoef = [...]float64{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	}
)

// boxMullerCos returns math.Cos(x) bit for bit for x in [0, 2π), the
// angles Normal draws. It is the portable math.cos with the same
// reduction, coefficients and operation order, but where math.cos
// branches on the octant, which a uniformly random angle mispredicts,
// it evaluates both polynomials and selects the octant's result and
// sign with bit operations. Outside [0, 2π) the result is wrong: the
// selection assumes an octant index from 0 to 8.
func boxMullerCos(x float64) float64 {
	j := uint64(x * (4 / math.Pi)) // octant, 0–7
	j += j & 1                     // map zeros to origin: odd octants round up, 7 to 8
	y := float64(j)
	z := ((x - y*pi4A) - y*pi4B) - y*pi4C // extended-precision x − j·π/4
	zz := z * z
	sin := z + z*zz*((((((sinCoef[0]*zz)+sinCoef[1])*zz+sinCoef[2])*zz+sinCoef[3])*zz+sinCoef[4])*zz+sinCoef[5])
	cos := 1.0 - 0.5*zz + zz*zz*((((((cosCoef[0]*zz)+cosCoef[1])*zz+cosCoef[2])*zz+cosCoef[3])*zz+cosCoef[4])*zz+cosCoef[5])
	// j is 0, 2, 4, 6 or 8: j = 2 and 6 take the sine polynomial, and
	// j = 2 and 4 negate, which is math.cos's y = -y, a sign-bit flip.
	useSin := -(j >> 1 & 1)
	neg := (j + 2) & 4 << 61
	return math.Float64frombits((math.Float64bits(sin)&useSin | math.Float64bits(cos)&^useSin) ^ neg)
}

// PositiveNormal samples Normal(mean, stdev) truncated below at min.
func (r *Rand) PositiveNormal(mean, stdev, min float64) float64 {
	v := r.Normal(mean, stdev)
	if v < min {
		return min
	}
	return v
}

// Exponential returns an exponentially distributed value with the given
// mean.
func (r *Rand) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Pareto returns a Pareto(xm, alpha) heavy-tailed value; used for reclaim
// storm durations.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// CyclesNormal draws a truncated normal and converts to Cycles.
func (r *Rand) CyclesNormal(mean, stdev, min float64) Cycles {
	return Cycles(r.PositiveNormal(mean, stdev, min))
}

// Jitter returns base scaled by a uniform factor in [1-f, 1+f].
func (r *Rand) Jitter(base Cycles, f float64) Cycles {
	if f <= 0 {
		return base
	}
	scale := 1 - f + 2*f*r.Float64()
	v := float64(base) * scale
	if v < 0 {
		return 0
	}
	return Cycles(v)
}
