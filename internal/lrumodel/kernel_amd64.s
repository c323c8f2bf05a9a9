#include "textflag.h"
#include "go_asm.h"

// The rows of ·vecConsts (32 bytes each), in kernel_amd64.go's order.
#define S5 ·vecConsts+0(SB)
#define S4 ·vecConsts+32(SB)
#define S3 ·vecConsts+64(SB)
#define S2 ·vecConsts+96(SB)
#define ONE ·vecConsts+128(SB)
#define INVSTEP ·vecConsts+160(SB)
#define HALF ·vecConsts+192(SB)
#define STEP ·vecConsts+224(SB)
#define E720 ·vecConsts+256(SB)
#define E120 ·vecConsts+288(SB)
#define E24 ·vecConsts+320(SB)
#define E6 ·vecConsts+352(SB)
#define E2 ·vecConsts+384(SB)
#define FLOOR ·vecConsts+416(SB)
#define TSIZE ·vecConsts+448(SB)

// VCMPPD predicates: ordered, non-signalling.
#define CMP_GE_OQ $0x1d
#define CMP_LT_OQ $0x11

// func seriesTailAVX2(q []float64, pSite, K, acc float64) float64
//
// Per group of four ranks, lane by lane, the operations of kernel.go's
// last loop and of oneMinusExp in the same order, with no fused
// multiply-add; a comment names the Go expression each step rounds.
TEXT ·seriesTailAVX2(SB), NOSPLIT, $0-56
	MOVQ  q_base+0(FP), SI
	MOVQ  q_len+8(FP), CX
	MOVSD acc+40(FP), X9
	SHRQ  $2, CX
	JZ    done

	VBROADCASTSD pSite+24(FP), Y15
	VBROADCASTSD K+32(FP), Y13
	VXORPD       Y14, Y14, Y14
	VSUBPD       Y13, Y14, Y14            // −K, exactly (K ≠ 0)
	MOVQ         $1023, AX                // the float64 exponent bias
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13
	MOVL         $(const_expTableSize-1), AX
	VMOVD        AX, X12
	VPBROADCASTD X12, X12
	VMOVUPD      HALF, Y11
	VMOVUPD      ONE, Y10
	LEAQ         ·expNeg(SB), AX
	LEAQ         ·expNegOm(SB), BX

loop:
	VMOVUPD (SI), Y0    // q
	VMULPD  Y0, Y15, Y1 // x := pSite * q
	VMULPD  S5, Y1, Y2  // x*(1.0/5)
	VADDPD  S4, Y2, Y2  // 1.0/4 + …
	VMULPD  Y2, Y1, Y2
	VADDPD  S3, Y2, Y2
	VMULPD  Y2, Y1, Y2
	VADDPD  S2, Y2, Y2
	VMULPD  Y2, Y1, Y2
	VADDPD  Y10, Y2, Y2 // 1 + …
	VMULPD  Y2, Y1, Y2  // l = −(x * …), sign applied with K
	VMULPD  Y2, Y14, Y2 // y := K*l

	// oneMinusExp(y)
	VCMPPD      CMP_GE_OQ, FLOOR, Y2, Y3 // y >= expFloor
	VMULPD      INVSTEP, Y2, Y1          // y*(1/expStep)
	VSUBPD      Y1, Y11, Y1              // 0.5 − …
	VCVTTPD2DQY Y1, X4                   // n := int(…)
	VCVTDQ2PD   X4, Y5                   // float64(n)
	VMULPD      STEP, Y5, Y1             // float64(n)*expStep
	VADDPD      Y1, Y2, Y2               // r := y + …
	VCMPPD      CMP_LT_OQ, TSIZE, Y5, Y5 // n < expTableSize
	VMULPD      E720, Y2, Y1             // r*(1.0/720)
	VADDPD      E120, Y1, Y1
	VMULPD      Y1, Y2, Y1
	VADDPD      E24, Y1, Y1
	VMULPD      Y1, Y2, Y1
	VADDPD      E6, Y1, Y1
	VMULPD      Y1, Y2, Y1
	VADDPD      E2, Y1, Y1               // 1.0/2 + …
	VMULPD      Y2, Y2, Y6               // r*r
	VMULPD      Y1, Y6, Y6               // r*r*(…)
	VADDPD      Y6, Y2, Y1               // em1 := r + …

	VPAND      X12, X4, X6          // n & (expTableSize−1)
	VPCMPEQD   Y7, Y7, Y7
	VGATHERDPD Y7, (AX)(X6*8), Y2   // t := expNeg[…]
	VPCMPEQD   Y7, Y7, Y7
	VGATHERDPD Y7, (BX)(X6*8), Y8   // expNegOm[…]
	VMULPD     Y1, Y2, Y7           // t*em1
	VSUBPD     Y7, Y8, Y8           // n < 64: expNegOm[…] − t*em1
	VPMOVSXDQ  X4, Y6
	VPSRLQ     $6, Y6, Y6           // n/expTableSize
	VPSUBQ     Y6, Y13, Y6
	VPSLLQ     $52, Y6, Y6          // 2^(−n/64) as float64 bits
	VMULPD     Y6, Y2, Y2           // t *= …
	VMULPD     Y1, Y2, Y7           // t*em1
	VADDPD     Y7, Y2, Y2           // t + t*em1
	VSUBPD     Y2, Y10, Y2          // n ≥ 64: 1 − (…)
	VBLENDVPD  Y5, Y8, Y2, Y2       // pick by n < 64
	VBLENDVPD  Y3, Y2, Y10, Y2      // !(y >= expFloor): 1

	// acc += oneMinusExp(y) * q, rank by rank
	VMULPD       Y0, Y2, Y2
	VADDSD       X2, X9, X9
	VPERMILPD    $1, X2, X3
	VADDSD       X3, X9, X9
	VEXTRACTF128 $1, Y2, X3
	VADDSD       X3, X9, X9
	VPERMILPD    $1, X3, X3
	VADDSD       X3, X9, X9

	ADDQ $32, SI
	DECQ CX
	JNZ  loop
	VZEROUPPER

done:
	MOVSD X9, ret+48(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
