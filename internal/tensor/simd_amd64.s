#include "textflag.h"

// AVX2 inner loops of the dense kernels. Every lane performs the scalar
// kernel's own float64 multiplies and adds (VMULPD, then VADDPD into the
// running value) in the scalar kernel's order; nothing here fuses a multiply
// into an add. The callers in simd_amd64.go check every extent first.

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func gemm8AVX2(out *float64, ldo int, a *float64, ars, aks int, b *float64, ldb, rows, kk, mode int)
//
// For r in [0, rows): acc = Σ_k a[r·ars + k·aks] · b[k·ldb : k·ldb+8], k
// ascending, where acc starts at +0 (mode 0 and 2) or at out[r·ldo : +8]
// (mode 1). Mode 0 and 1 store acc into out's row, mode 2 adds it. Four
// rows run at once: eight independent accumulator chains, Y0–Y7.
TEXT ·gemm8AVX2(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ ldo+8(FP), R8
	SHLQ $3, R8
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	SHLQ $3, R9
	MOVQ aks+32(FP), R12
	SHLQ $3, R12
	MOVQ b+40(FP), DX
	MOVQ ldb+48(FP), R10
	SHLQ $3, R10
	MOVQ rows+56(FP), R11
	MOVQ mode+72(FP), R13

rows4:
	CMPQ R11, $4
	JLT  rows1
	CMPQ R13, $1
	JEQ  load4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP  k4init

load4:
	LEAQ    (DI)(R8*2), BX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD (BX)(R8*1), Y6
	VMOVUPD 32(BX)(R8*1), Y7

k4init:
	MOVQ  SI, AX
	LEAQ  (SI)(R9*2), R14
	MOVQ  DX, BX
	MOVQ  kk+64(FP), CX
	TESTQ CX, CX
	JZ    store4

k4:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (AX), Y10
	VBROADCASTSD (AX)(R9*1), Y11
	VBROADCASTSD (R14), Y12
	VBROADCASTSD (R14)(R9*1), Y13
	VMULPD       Y8, Y10, Y14
	VADDPD       Y14, Y0, Y0
	VMULPD       Y9, Y10, Y14
	VADDPD       Y14, Y1, Y1
	VMULPD       Y8, Y11, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y9, Y11, Y14
	VADDPD       Y14, Y3, Y3
	VMULPD       Y8, Y12, Y14
	VADDPD       Y14, Y4, Y4
	VMULPD       Y9, Y12, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y9, Y13, Y14
	VADDPD       Y14, Y7, Y7
	ADDQ         R12, AX
	ADDQ         R12, R14
	ADDQ         R10, BX
	DECQ         CX
	JNZ          k4

store4:
	LEAQ (DI)(R8*2), BX
	CMPQ R13, $2
	JNE  put4
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD (DI)(R8*1), Y2, Y2
	VADDPD 32(DI)(R8*1), Y3, Y3
	VADDPD (BX), Y4, Y4
	VADDPD 32(BX), Y5, Y5
	VADDPD (BX)(R8*1), Y6, Y6
	VADDPD 32(BX)(R8*1), Y7, Y7

put4:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, (BX)(R8*1)
	VMOVUPD Y7, 32(BX)(R8*1)
	LEAQ    (DI)(R8*4), DI
	LEAQ    (SI)(R9*4), SI
	SUBQ    $4, R11
	JMP     rows4

rows1:
	TESTQ R11, R11
	JZ    done
	CMPQ  R13, $1
	JEQ   load1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	JMP   k1init

load1:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1

k1init:
	MOVQ  SI, AX
	MOVQ  DX, BX
	MOVQ  kk+64(FP), CX
	TESTQ CX, CX
	JZ    store1

k1:
	VBROADCASTSD (AX), Y10
	VMULPD       (BX), Y10, Y14
	VADDPD       Y14, Y0, Y0
	VMULPD       32(BX), Y10, Y14
	VADDPD       Y14, Y1, Y1
	ADDQ         R12, AX
	ADDQ         R10, BX
	DECQ         CX
	JNZ          k1

store1:
	CMPQ R13, $2
	JNE  put1
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1

put1:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R8, DI
	ADDQ    R9, SI
	DECQ    R11
	JMP     rows1

done:
	VZEROUPPER
	RET

// func axpyAVX2(y *float64, s float64, x *float64, n int)
//
// y[0:n] += s·x[0:n]; n is a positive multiple of 4.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ         y+0(FP), DI
	VBROADCASTSD s+8(FP), Y10
	MOVQ         x+16(FP), SI
	MOVQ         n+24(FP), CX
	SHLQ         $3, CX
	MOVQ         CX, DX
	ANDQ         $~127, DX
	XORQ         AX, AX
	TESTQ        DX, DX
	JZ           ax4

ax16:
	VMULPD  (SI)(AX*1), Y10, Y0
	VMULPD  32(SI)(AX*1), Y10, Y1
	VMULPD  64(SI)(AX*1), Y10, Y2
	VMULPD  96(SI)(AX*1), Y10, Y3
	VADDPD  (DI)(AX*1), Y0, Y0
	VADDPD  32(DI)(AX*1), Y1, Y1
	VADDPD  64(DI)(AX*1), Y2, Y2
	VADDPD  96(DI)(AX*1), Y3, Y3
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	CMPQ    AX, DX
	JLT     ax16

ax4:
	CMPQ    AX, CX
	JGE     axdone
	VMULPD  (SI)(AX*1), Y10, Y0
	VADDPD  (DI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     ax4

axdone:
	VZEROUPPER
	RET

// func mixAVX2(d *float64, n int, srcs **float64, ws *float64, cnt int, z float64, head bool)
//
// One WeightedSumInto pass over d[0:n] with cnt ≥ 1 sources srcs[0:cnt]:
// each element's running value starts at z (head) or at d, and source j
// adds ws[j]·srcs[j] to it, j ascending. n is a positive multiple of 4.
// Sixteen elements run at once (four independent chains, Y0–Y3), then four.
TEXT ·mixAVX2(SB), NOSPLIT, $0-49
	MOVQ         d+0(FP), DI
	MOVQ         n+8(FP), CX
	SHLQ         $3, CX
	MOVQ         srcs+16(FP), R8
	MOVQ         ws+24(FP), R9
	MOVQ         cnt+32(FP), R10
	VBROADCASTSD z+40(FP), Y12
	MOVBLZX      head+48(FP), R11
	XORQ         AX, AX

mx16:
	LEAQ  128(AX), BX
	CMPQ  BX, CX
	JGT   mx4
	TESTQ R11, R11
	JZ    mx16fromd
	VMOVAPD Y12, Y0
	VMOVAPD Y12, Y1
	VMOVAPD Y12, Y2
	VMOVAPD Y12, Y3
	JMP   mx16init

mx16fromd:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD 64(DI)(AX*1), Y2
	VMOVUPD 96(DI)(AX*1), Y3

mx16init:
	MOVQ R8, DX
	MOVQ R9, R13
	MOVQ R10, BX

mx16src:
	MOVQ         (DX), SI
	VBROADCASTSD (R13), Y8
	VMULPD       (SI)(AX*1), Y8, Y4
	VMULPD       32(SI)(AX*1), Y8, Y5
	VMULPD       64(SI)(AX*1), Y8, Y6
	VMULPD       96(SI)(AX*1), Y8, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	ADDQ         $8, DX
	ADDQ         $8, R13
	DECQ         BX
	JNZ          mx16src
	VMOVUPD      Y0, (DI)(AX*1)
	VMOVUPD      Y1, 32(DI)(AX*1)
	VMOVUPD      Y2, 64(DI)(AX*1)
	VMOVUPD      Y3, 96(DI)(AX*1)
	ADDQ         $128, AX
	JMP          mx16

mx4:
	CMPQ  AX, CX
	JGE   mxdone
	TESTQ R11, R11
	JZ    mx4fromd
	VMOVAPD Y12, Y0
	JMP   mx4init

mx4fromd:
	VMOVUPD (DI)(AX*1), Y0

mx4init:
	MOVQ R8, DX
	MOVQ R9, R13
	MOVQ R10, BX

mx4src:
	MOVQ         (DX), SI
	VBROADCASTSD (R13), Y8
	VMULPD       (SI)(AX*1), Y8, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $8, DX
	ADDQ         $8, R13
	DECQ         BX
	JNZ          mx4src
	VMOVUPD      Y0, (DI)(AX*1)
	ADDQ         $32, AX
	JMP          mx4

mxdone:
	VZEROUPPER
	RET
