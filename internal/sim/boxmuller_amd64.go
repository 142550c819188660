package sim

import "math"

// haveAVX2 selects StdNormals' AVX2 kernel: the CPU has AVX2 and the
// operating system saves the YMM registers. Tests clear it to run the
// scalar loop.
var haveAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports CPUID's AVX and AVX2 bits and XGETBV's XMM and YMM
// state bits.
func cpuHasAVX2() bool

// stdNormalsAVX2 sets z[i] = stdNormal(u1[i], u2[i]) four lanes at a
// time. len(z) must be a multiple of 4, u1 and u2 at least as long, and
// k must be &avx2Consts.
//
//go:noescape
func stdNormalsAVX2(z, u1, u2 []float64, k *[len(avx2Consts)][4]uint64)

// avx2Consts is the kernel's constant table, one row per constant in the
// order of the K_ names in boxmuller_amd64.s. A row holds the constant's
// bits in all four lanes, so an instruction takes it as a 256-bit
// operand. The cosine's constants are boxMullerCos's own; the
// logarithm's are those of Go's math.Log on amd64 (log_amd64.s), whose
// source gives them in decimal beside these bits.
var avx2Consts = [...][4]uint64{
	lanes(0x000fffffffffffff),            // K_MANT: the mantissa field
	lanes(0x3fe0000000000000),            // K_HALF: 0.5
	lanes(0x4330000000000000),            // K_EXP52: 2^52
	lanes(0x43300000000003fe),            // K_KBIAS: 2^52 + 1022
	lanes(0x3fe6a09e667f3bcd),            // K_HSQRT2: √2/2
	lanes(0x3ff0000000000000),            // K_ONE: 1
	lanes(0x4000000000000000),            // K_TWO: 2
	lanes(0x3fe5555555555593),            // K_L1
	lanes(0x3fd999999997fa04),            // K_L2
	lanes(0x3fd2492494229359),            // K_L3
	lanes(0x3fcc71c51d8e78af),            // K_L4
	lanes(0x3fc7466496cb03de),            // K_L5
	lanes(0x3fc39a09d078c69f),            // K_L6
	lanes(0x3fc2f112df3e5244),            // K_L7
	lanes(0x3fe62e42fee00000),            // K_LN2HI
	lanes(0x3dea39ef35793c76),            // K_LN2LO
	lanes(0xc000000000000000),            // K_MINUS2: −2
	lanes(math.Float64bits(2 * math.Pi)), // K_TWOPI
	lanes(math.Float64bits(4 / math.Pi)), // K_FOURPI: 4/π
	lanes(math.Float64bits(pi4A)),        // K_PI4A
	lanes(math.Float64bits(pi4B)),        // K_PI4B
	lanes(math.Float64bits(pi4C)),        // K_PI4C
	lanes(math.Float64bits(sinCoef[0])),  // K_SIN0
	lanes(math.Float64bits(sinCoef[1])),  // K_SIN1
	lanes(math.Float64bits(sinCoef[2])),  // K_SIN2
	lanes(math.Float64bits(sinCoef[3])),  // K_SIN3
	lanes(math.Float64bits(sinCoef[4])),  // K_SIN4
	lanes(math.Float64bits(sinCoef[5])),  // K_SIN5
	lanes(math.Float64bits(cosCoef[0])),  // K_COS0
	lanes(math.Float64bits(cosCoef[1])),  // K_COS1
	lanes(math.Float64bits(cosCoef[2])),  // K_COS2
	lanes(math.Float64bits(cosCoef[3])),  // K_COS3
	lanes(math.Float64bits(cosCoef[4])),  // K_COS4
	lanes(math.Float64bits(cosCoef[5])),  // K_COS5
	lanes(0x0000000100000001),            // K_JODD: 1 in each 32-bit lane
	lanes(2),                             // K_QTWO: 2 in each 64-bit lane
	lanes(4),                             // K_QFOUR: 4 in each 64-bit lane
}

func lanes(c uint64) [4]uint64 { return [4]uint64{c, c, c, c} }

// StdNormals sets z[i] to the standard normal Normal draws from the
// uniform pair (u1[i], u2[i]), bit for bit; u1 and u2 must be at least as
// long as z. Normal scales the draw of its pair by its deviation and adds
// its mean. The pairs must lie in Normal's domain, u1 in [2^-53, 1) and u2
// in [0, 1), as FillNormalUniforms draws them. With AVX2 the pairs go four
// at a time through a kernel that runs math.Log's, math.Sqrt's and
// boxMullerCos's operations in their order (DESIGN.md §10); the rest, and
// every pair on a CPU without AVX2, go through the scalar loop.
func StdNormals(z, u1, u2 []float64) {
	u1, u2 = u1[:len(z)], u2[:len(z)]
	i := 0
	if haveAVX2 {
		i = len(z) &^ 3
		stdNormalsAVX2(z[:i], u1[:i], u2[:i], &avx2Consts)
	}
	for ; i < len(z); i++ {
		z[i] = stdNormal(u1[i], u2[i])
	}
}
