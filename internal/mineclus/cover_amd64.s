#include "textflag.h"

// func windowWordsAVX512F(dst, keys []uint64, lo, span uint64)
//
// For each k < len(dst), dst[k] gets bit j set exactly when
// keys[64k+j] - lo <= span, wrapping and unsigned as in Go. The caller
// guarantees len(keys) >= 64*len(dst). Each word takes eight compares of
// eight lanes: VPSUBQ wraps like uint64 subtraction and VPCMPUQ predicate 2
// is unsigned <=, so every lane evaluates windowBits's test bit for bit.
TEXT ·windowWordsAVX512F(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         keys_base+24(FP), SI
	VPBROADCASTQ lo+48(FP), Z0
	VPBROADCASTQ span+56(FP), Z1
	TESTQ        CX, CX
	JZ           done

word:
	VMOVDQU64 (SI), Z2
	VMOVDQU64 64(SI), Z3
	VMOVDQU64 128(SI), Z4
	VMOVDQU64 192(SI), Z5
	VMOVDQU64 256(SI), Z6
	VMOVDQU64 320(SI), Z7
	VMOVDQU64 384(SI), Z8
	VMOVDQU64 448(SI), Z9
	VPSUBQ    Z0, Z2, Z2
	VPSUBQ    Z0, Z3, Z3
	VPSUBQ    Z0, Z4, Z4
	VPSUBQ    Z0, Z5, Z5
	VPSUBQ    Z0, Z6, Z6
	VPSUBQ    Z0, Z7, Z7
	VPSUBQ    Z0, Z8, Z8
	VPSUBQ    Z0, Z9, Z9
	VPCMPUQ   $2, Z1, Z2, K1
	VPCMPUQ   $2, Z1, Z3, K2
	VPCMPUQ   $2, Z1, Z4, K3
	VPCMPUQ   $2, Z1, Z5, K4
	VPCMPUQ   $2, Z1, Z6, K5
	VPCMPUQ   $2, Z1, Z7, K6
	VPCMPUQ   $2, Z1, Z8, K7
	KMOVW     K1, AX
	KMOVW     K2, BX
	KMOVW     K3, DX
	KMOVW     K4, R8
	KMOVW     K5, R9
	KMOVW     K6, R10
	KMOVW     K7, R11
	VPCMPUQ   $2, Z1, Z9, K1
	KMOVW     K1, R12

	// Each mask holds eight lane bits; shift them into place.
	SHLQ $8, BX
	SHLQ $16, DX
	SHLQ $24, R8
	SHLQ $32, R9
	SHLQ $40, R10
	SHLQ $48, R11
	SHLQ $56, R12
	ORQ  BX, AX
	ORQ  R8, DX
	ORQ  R10, R9
	ORQ  R12, R11
	ORQ  DX, AX
	ORQ  R11, R9
	ORQ  R9, AX
	MOVQ AX, (DI)

	ADDQ $512, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  word

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
