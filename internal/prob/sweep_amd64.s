#include "textflag.h"

// The smallest positive normal float64, 2⁻¹⁰²²: the flush threshold.
DATA minNormal<>+0(SB)/8, $0x0010000000000000
GLOBL minNormal<>(SB), RODATA|NOPTR, $8

// func sweepAVX2(w []float64, p, q float64)
//
// No FMA: the products are rounded on their own, as in the scalar step.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-40
	MOVQ         w_base+0(FP), SI
	MOVQ         w_len+8(FP), CX
	DECQ         CX                 // CX = top index
	MOVQ         CX, BX
	SHRQ         $2, BX             // BX = full blocks
	JZ           done
	LEAQ         -24(SI)(CX*8), DI  // DI = &w[top−3], the top block
	VBROADCASTSD p+24(FP), Y0
	VBROADCASTSD q+32(FP), Y1
	VBROADCASTSD minNormal<>(SB), Y2

loop:
	VMOVUPD (DI), Y3           // w[j..j+3]
	VMOVUPD -8(DI), Y4         // w[j−1..j+2]
	VMULPD  Y1, Y3, Y3         // ·q
	VMULPD  Y0, Y4, Y4         // ·p
	VADDPD  Y4, Y3, Y3
	VCMPPD  $0x11, Y2, Y3, Y5  // lanes below 2⁻¹⁰²² (LT_OQ)
	VANDNPD Y3, Y5, Y3         // are stored as +0
	VMOVUPD Y3, (DI)
	SUBQ    $32, DI
	DECQ    BX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
