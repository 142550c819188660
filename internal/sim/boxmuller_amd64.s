#include "textflag.h"

// Rows of avx2Consts (boxmuller_amd64.go), 32 bytes each, through R8.
#define K_MANT 0(R8)
#define K_HALF 32(R8)
#define K_EXP52 64(R8)
#define K_KBIAS 96(R8)
#define K_HSQRT2 128(R8)
#define K_ONE 160(R8)
#define K_TWO 192(R8)
#define K_L1 224(R8)
#define K_L2 256(R8)
#define K_L3 288(R8)
#define K_L4 320(R8)
#define K_L5 352(R8)
#define K_L6 384(R8)
#define K_L7 416(R8)
#define K_LN2HI 448(R8)
#define K_LN2LO 480(R8)
#define K_MINUS2 512(R8)
#define K_TWOPI 544(R8)
#define K_FOURPI 576(R8)
#define K_PI4A 608(R8)
#define K_PI4B 640(R8)
#define K_PI4C 672(R8)
#define K_SIN0 704(R8)
#define K_SIN1 736(R8)
#define K_SIN2 768(R8)
#define K_SIN3 800(R8)
#define K_SIN4 832(R8)
#define K_SIN5 864(R8)
#define K_COS0 896(R8)
#define K_COS1 928(R8)
#define K_COS2 960(R8)
#define K_COS3 992(R8)
#define K_COS4 1024(R8)
#define K_COS5 1056(R8)
#define K_JODD 1088(R8)
#define K_QTWO 1120(R8)
#define K_QFOUR 1152(R8)

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV               // XCR0 in DX:AX
	ANDL $6, AX          // XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	TESTL $0x20, BX      // AVX2 (bit 5)
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func stdNormalsAVX2(z, u1, u2 []float64, k *[37][4]uint64)
//
// Each lane runs stdNormal's IEEE operations in its order: log_amd64.s's
// math.Log, the multiplication by −2, math.Sqrt's SQRTSD, the
// multiplication by 2π, boxMullerCos and the final product. The comments
// give each step as the scalar source writes it. There is no FMA, so every
// product and sum rounds as the scalar instruction does. u1 is positive and
// normal, so math.Log's zero, negative, infinite and NaN cases cannot occur.
TEXT ·stdNormalsAVX2(SB), NOSPLIT, $0-80
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	MOVQ u1_base+24(FP), SI
	MOVQ u2_base+48(FP), DX
	MOVQ k+72(FP), R8
	SHRQ $2, CX
	JZ   done

loop:
	VMOVUPD (SI), Y0 // u1
	VMOVUPD (DX), Y1 // u2

	// f1, ki := math.Frexp(u1); k := float64(ki): the exponent e as the
	// low bits of 2^52+e, minus 2^52+1022, is e−1022 exactly, the value
	// CVTSL2SD makes of it.
	VANDPD K_MANT, Y0, Y2
	VORPD  K_HALF, Y2, Y2  // f1
	VPSRLQ $52, Y0, Y3
	VPOR   K_EXP52, Y3, Y3
	VSUBPD K_KBIAS, Y3, Y3 // k

	// if f1 <= √2/2 { k -= 1; f1 *= 2 } (log_amd64.s's CMPSD not-less-than)
	VCMPPD $2, K_HSQRT2, Y2, Y4 // f1 <= √2/2: all ones or 0
	VANDPD K_ONE, Y4, Y4        // 1 or 0
	VSUBPD Y4, Y3, Y3           // k − (1 or 0)
	VADDPD K_ONE, Y4, Y4        // 2 or 1
	VMULPD Y4, Y2, Y2           // f1 · (2 or 1)

	// f := f1 − 1; s := f / (2 + f); s2 := s·s; s4 := s2·s2
	VSUBPD K_ONE, Y2, Y2 // f
	VADDPD K_TWO, Y2, Y4
	VDIVPD Y4, Y2, Y5    // s
	VMULPD Y5, Y5, Y6    // s2
	VMULPD Y6, Y6, Y7    // s4

	// t1 := s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD K_L7, Y7, Y8
	VADDPD K_L5, Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD K_L3, Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD K_L1, Y8, Y8
	VMULPD Y8, Y6, Y6 // t1

	// t2 := s4·(L2 + s4·(L4 + s4·L6)); R := t1 + t2
	VMULPD K_L6, Y7, Y8
	VADDPD K_L4, Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD K_L2, Y8, Y8
	VMULPD Y8, Y7, Y7 // t2
	VADDPD Y7, Y6, Y6 // R

	// hfsq := 0.5·f·f
	VMULPD K_HALF, Y2, Y7
	VMULPD Y2, Y7, Y7 // hfsq

	// log u1 = k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f)
	VADDPD Y7, Y6, Y6
	VMULPD Y6, Y5, Y5 // s·(hfsq+R)
	VMULPD K_LN2LO, Y3, Y6
	VADDPD Y6, Y5, Y5
	VSUBPD Y5, Y7, Y7
	VSUBPD Y2, Y7, Y7
	VMULPD K_LN2HI, Y3, Y3
	VSUBPD Y7, Y3, Y3 // log u1

	// math.Sqrt(−2·log u1)
	VMULPD  K_MINUS2, Y3, Y3
	VSQRTPD Y3, Y3

	// x := 2π·u2; j := uint64(x·(4/π)); j += j & 1; y := float64(j)
	VMULPD      K_TWOPI, Y1, Y1  // x
	VMULPD      K_FOURPI, Y1, Y4
	VCVTTPD2DQY Y4, X4           // j, truncated, in 32-bit lanes
	VPAND       K_JODD, X4, X5
	VPADDD      X5, X4, X4       // j, now 0, 2, 4, 6 or 8
	VCVTDQ2PD   X4, Y5           // y
	VPMOVZXDQ   X4, Y4           // j in 64-bit lanes

	// z := ((x − y·pi4A) − y·pi4B) − y·pi4C; zz := z·z
	VMULPD K_PI4A, Y5, Y6
	VSUBPD Y6, Y1, Y1
	VMULPD K_PI4B, Y5, Y6
	VSUBPD Y6, Y1, Y1
	VMULPD K_PI4C, Y5, Y6
	VSUBPD Y6, Y1, Y1 // z
	VMULPD Y1, Y1, Y2 // zz

	// sin := z + z·zz·((((((s0·zz)+s1)·zz+s2)·zz+s3)·zz+s4)·zz+s5)
	VMULPD K_SIN0, Y2, Y6
	VADDPD K_SIN1, Y6, Y6
	VMULPD Y2, Y6, Y6
	VADDPD K_SIN2, Y6, Y6
	VMULPD Y2, Y6, Y6
	VADDPD K_SIN3, Y6, Y6
	VMULPD Y2, Y6, Y6
	VADDPD K_SIN4, Y6, Y6
	VMULPD Y2, Y6, Y6
	VADDPD K_SIN5, Y6, Y6
	VMULPD Y2, Y1, Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y1, Y1 // sin

	// cos := 1 − 0.5·zz + zz·zz·((((((c0·zz)+c1)·zz+c2)·zz+c3)·zz+c4)·zz+c5)
	VMULPD  K_COS0, Y2, Y6
	VADDPD  K_COS1, Y6, Y6
	VMULPD  Y2, Y6, Y6
	VADDPD  K_COS2, Y6, Y6
	VMULPD  Y2, Y6, Y6
	VADDPD  K_COS3, Y6, Y6
	VMULPD  Y2, Y6, Y6
	VADDPD  K_COS4, Y6, Y6
	VMULPD  Y2, Y6, Y6
	VADDPD  K_COS5, Y6, Y6
	VMULPD  Y2, Y2, Y7
	VMULPD  Y6, Y7, Y7
	VMULPD  K_HALF, Y2, Y2
	VMOVUPD K_ONE, Y6
	VSUBPD  Y2, Y6, Y2
	VADDPD  Y7, Y2, Y2     // cos

	// j = 2 and 6 take the sine (useSin = −(j>>1 & 1)), j = 2 and 4
	// negate (neg = (j+2) & 4 << 61).
	VPAND    K_QTWO, Y4, Y6
	VPCMPEQQ K_QTWO, Y6, Y6 // useSin
	VPADDQ   K_QTWO, Y4, Y4
	VPAND    K_QFOUR, Y4, Y4
	VPSLLQ   $61, Y4, Y4    // neg
	VANDPD   Y6, Y1, Y1
	VANDNPD  Y2, Y6, Y2
	VORPD    Y2, Y1, Y1
	VXORPD   Y4, Y1, Y1     // boxMullerCos(x)

	VMULPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)

	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  loop
	VZEROUPPER

done:
	RET
