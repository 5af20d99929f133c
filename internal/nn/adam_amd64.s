//go:build amd64 && !amd64.v3

#include "textflag.h"

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   done
	// Leaf 1, ECX: OSXSAVE (27) and AVX (28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	// XCR0: the OS saves xmm (1) and ymm (2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	// Leaf 7, EBX: AVX2 (5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  done
	MOVB $1, ret+0(FP)
done:
	RET

DATA adamAbs<>+0(SB)/8, $0x7fffffffffffffff
GLOBL adamAbs<>(SB), RODATA|NOPTR, $8
DATA adamOne<>+0(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL adamOne<>(SB), RODATA|NOPTR, $8
DATA adamMinNormal<>+0(SB)/8, $0x0010000000000000 // 2^-1022
GLOBL adamMinNormal<>(SB), RODATA|NOPTR, $8
DATA adamBig<>+0(SB)/8, $0x5f30000000000000 // 2^500
GLOBL adamBig<>(SB), RODATA|NOPTR, $8

// adamConsts field offsets.
#define K_BETA1 0
#define K_OMB1  8
#define K_BETA2 16
#define K_OMB2  24
#define K_C1    32
#define K_C2    40
#define K_LR    48
#define K_EPS   56
#define K_LIM   64
#define K_REST  72

// VCMPPD predicates: ordered, quiet — false on NaN like Go's ==, <=, >=, >.
#define EQ_OQ $0x00
#define LE_OQ $0x12
#define GE_OQ $0x1d
#define GT_OQ $0x1e

// func adamBlocksAVX2(value, grad, m, v *float64, n int, k *adamConsts) int
//
// One block is stepScalar's body on four lanes: the same multiplies, adds,
// divides and square root in the same association, each correctly rounded
// per lane, nothing fused. (Operand order within an add decides only which
// payload survives when two NaNs meet, which Go leaves to the compiler in
// stepScalar too.) stepScalar's branches are masks:
//
//	idle    g == ±0
//	rest    idle, 0 < |m| <= rest (bit patterns)      → multiply sees +0, m kept
//	stop    idle, rest < |m| < 2^-1022,
//	        fl(beta1·m) == m                          → return before the block
//	absorb  idle, v >= 0, 0 < |x| <= 2^500,
//	        |m| <= lim·|x|                            → divider sees +0
//
// An absorbed lane has lim >= 0, so lr, eps, c1 and c2 are positive and
// finite, its update is lr·(0/c1)/(sqrt(0/c2) + eps) = +0, and x − 0 is x.
// stop is the scalar loop's condition for learning rest, which only it
// does; nothing of the block has been stored when the kernel returns. Once
// rest is known no operation meets a subnormal moment. AVX2 has no
// unsigned quadword compare; with the sign bit cleared the patterns are
// below 2^63 and VPCMPGTQ serves.
TEXT ·adamBlocksAVX2(SB), NOSPLIT, $0-56
	MOVQ value+0(FP), SI
	MOVQ grad+8(FP), DX
	MOVQ m+16(FP), DI
	MOVQ v+24(FP), R8
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), R9
	XORQ AX, AX
	CMPQ CX, $4
	JLT  out

	VXORPD       Y0, Y0, Y0            // +0
	VBROADCASTSD adamAbs<>(SB), Y1
	VBROADCASTSD K_BETA1(R9), Y2
	VBROADCASTSD K_OMB1(R9), Y3
	VBROADCASTSD K_BETA2(R9), Y4
	VBROADCASTSD K_OMB2(R9), Y5
	VBROADCASTSD K_REST(R9), Y6
	VBROADCASTSD K_LIM(R9), Y7
	VBROADCASTSD K_LR(R9), Y15
	MOVQ         K_C1(R9), R10
	MOVQ         adamOne<>(SB), R11

block:
	VMOVUPD      (DX)(AX*8), Y8        // g
	VMOVUPD      (DI)(AX*8), Y9        // m
	VCMPPD       EQ_OQ, Y0, Y8, Y10    // idle
	VANDPD       Y1, Y9, Y11           // |m|
	VPCMPGTQ     Y6, Y11, Y12          // |m| > rest
	VPCMPGTQ     Y0, Y11, Y13          // |m| > 0
	VANDNPD      Y13, Y12, Y13         // … and not above rest
	VANDPD       Y10, Y13, Y13         // rest
	VANDPD       Y10, Y12, Y12         // idle, above rest
	VBROADCASTSD adamMinNormal<>(SB), Y14
	VPCMPGTQ     Y11, Y14, Y14         // 2^-1022 > |m|
	VANDPD       Y14, Y12, Y12         // … and subnormal
	VANDNPD      Y9, Y13, Y11          // m, +0 in resting lanes
	VMULPD       Y11, Y2, Y11          // beta1·m
	VMULPD       Y8, Y3, Y14           // omb1·g
	VADDPD       Y14, Y11, Y11
	VCMPPD       EQ_OQ, Y9, Y11, Y14   // … and the multiply gave m back
	VANDPD       Y14, Y12, Y12         // stop
	VMOVMSKPD    Y12, BX
	TESTL        BX, BX
	JNZ          out
	VBLENDVPD    Y13, Y9, Y11, Y9      // resting lanes keep m
	VMOVUPD      Y9, (DI)(AX*8)

	VMOVUPD (R8)(AX*8), Y11            // v
	VMULPD  Y8, Y5, Y12                // omb2·g
	VMULPD  Y8, Y12, Y12               // (omb2·g)·g
	VMULPD  Y11, Y4, Y11               // beta2·v
	VADDPD  Y12, Y11, Y11
	VMOVUPD Y11, (R8)(AX*8)

	VMOVUPD      (SI)(AX*8), Y8        // x
	VANDPD       Y1, Y8, Y12           // |x|
	VCMPPD       GE_OQ, Y0, Y11, Y13   // v >= 0
	VANDPD       Y13, Y10, Y10
	VCMPPD       GT_OQ, Y0, Y12, Y13   // |x| > 0
	VANDPD       Y13, Y10, Y10
	VBROADCASTSD adamBig<>(SB), Y13
	VCMPPD       LE_OQ, Y13, Y12, Y13  // |x| <= 2^500
	VANDPD       Y13, Y10, Y10
	VMULPD       Y12, Y7, Y12          // lim·|x|
	VANDPD       Y1, Y9, Y13           // |m|
	VCMPPD       LE_OQ, Y12, Y13, Y13  // |m| <= lim·|x|
	VANDPD       Y13, Y10, Y10         // absorb
	VANDNPD      Y9, Y10, Y9           // m and v, +0 in absorbed lanes
	VANDNPD      Y11, Y10, Y11

	CMPQ         R10, R11
	JEQ          corrected             // c1 == 1: m/1 is m
	VBROADCASTSD K_C1(R9), Y12
	VDIVPD       Y12, Y9, Y9           // m/c1
corrected:
	VBROADCASTSD K_C2(R9), Y12
	VDIVPD       Y12, Y11, Y11         // v/c2
	VSQRTPD      Y11, Y11
	VBROADCASTSD K_EPS(R9), Y12
	VADDPD       Y12, Y11, Y11         // sqrt(v̂) + eps
	VMULPD       Y9, Y15, Y9           // lr·m̂
	VDIVPD       Y11, Y9, Y9
	VSUBPD       Y9, Y8, Y9            // x − update
	VMOVUPD      Y9, (SI)(AX*8)

	ADDQ $4, AX
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JLE  block

out:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET
